//! Filesystem abstraction for the WAL.
//!
//! The engine only ever performs a handful of operations on its log
//! directory — append, full write, fsync, rename, remove, list, read — so
//! they are captured in a small object-safe trait. Production uses
//! [`StdFs`]; tests use [`MemFs`] (which models what survives a crash:
//! only fsynced bytes) and [`FailpointFs`] (which fails every mutating
//! operation after a chosen kill point, simulating a process kill at each
//! write/fsync boundary).

use crate::sync;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Minimal durable-storage interface. Paths are flat file names relative
/// to the database directory; implementations own the root.
pub trait DurableFs: Send + Sync {
    /// Read the full contents of a file.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Create or truncate a file with the given contents (not yet durable
    /// until [`DurableFs::sync`]).
    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Append bytes to a file, creating it if missing.
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Make all previous writes to the file durable (fsync).
    fn sync(&self, name: &str) -> io::Result<()>;
    /// Atomically rename a (synced) file. Implementations must make the
    /// rename itself durable before returning.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Delete a file.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// List all file names in the database directory.
    fn list(&self) -> io::Result<Vec<String>>;
}

// --------------------------------------------------------------- StdFs

/// Real filesystem rooted at a directory.
pub struct StdFs {
    root: PathBuf,
}

impl StdFs {
    /// Open (creating if needed) a database directory.
    pub fn new(root: impl AsRef<Path>) -> io::Result<StdFs> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(StdFs { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Persist directory metadata (needed after rename/create on POSIX).
        #[cfg(unix)]
        {
            std::fs::File::open(&self.root)?.sync_all()?;
        }
        Ok(())
    }
}

impl DurableFs for StdFs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        std::fs::write(self.path(name), data)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        std::fs::File::open(self.path(name))?.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))?;
        self.sync_dir()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.path(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(out)
    }
}

// --------------------------------------------------------------- MemFs

#[derive(Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable. Everything past this offset is lost by
    /// [`MemFs::crash_image`], modeling an OS page cache that was never
    /// flushed.
    synced: usize,
}

/// In-memory filesystem with an explicit durability model: appends and
/// writes land in volatile state until `sync`; a crash image keeps only
/// the synced prefix of every file. Renames are atomic and durable (the
/// WAL only renames files it has already synced).
#[derive(Default)]
pub struct MemFs {
    files: Mutex<HashMap<String, MemFile>>,
}

impl MemFs {
    pub fn new() -> Arc<MemFs> {
        Arc::new(MemFs::default())
    }

    /// The filesystem as it would look after a crash: every file truncated
    /// to its fsynced prefix.
    pub fn crash_image(&self) -> Arc<MemFs> {
        let files = sync::lock(&self.files);
        let mut out = HashMap::new();
        for (name, f) in files.iter() {
            out.insert(
                name.clone(),
                MemFile {
                    data: f.data[..f.synced].to_vec(),
                    synced: f.synced,
                },
            );
        }
        Arc::new(MemFs {
            files: Mutex::new(out),
        })
    }

    /// The filesystem after a clean shutdown (all buffers flushed).
    pub fn clean_image(&self) -> Arc<MemFs> {
        let files = sync::lock(&self.files);
        let mut out = HashMap::new();
        for (name, f) in files.iter() {
            out.insert(
                name.clone(),
                MemFile {
                    data: f.data.clone(),
                    synced: f.data.len(),
                },
            );
        }
        Arc::new(MemFs {
            files: Mutex::new(out),
        })
    }

    /// Raw contents of a file (tests use this to build torn images).
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        sync::lock(&self.files).get(name).map(|f| f.data.clone())
    }

    /// Install raw, fully-synced contents (tests use this to build torn
    /// or corrupted images byte by byte).
    pub fn put_file(&self, name: &str, data: Vec<u8>) {
        let synced = data.len();
        sync::lock(&self.files).insert(name.to_string(), MemFile { data, synced });
    }

    pub fn remove_file(&self, name: &str) {
        sync::lock(&self.files).remove(name);
    }

    pub fn file_names(&self) -> Vec<String> {
        let mut names: Vec<String> = sync::lock(&self.files).keys().cloned().collect();
        names.sort();
        names
    }
}

impl DurableFs for MemFs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        sync::lock(&self.files)
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        sync::lock(&self.files).insert(
            name.to_string(),
            MemFile {
                data: data.to_vec(),
                synced: 0,
            },
        );
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut files = sync::lock(&self.files);
        files
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut files = sync::lock(&self.files);
        match files.get_mut(name) {
            Some(f) => {
                f.synced = f.data.len();
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = sync::lock(&self.files);
        let f = files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, from.to_string()))?;
        files.insert(to.to_string(), f);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        sync::lock(&self.files).remove(name);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.file_names())
    }
}

// ---------------------------------------------------------- FailpointFs

/// Deterministic fault injector: counts every mutating operation (append,
/// write, sync, rename, remove) and fails all of them once the count
/// exceeds the kill point, as if the process had been killed at exactly
/// that write/fsync boundary. Reads are unaffected so the harness can
/// still inspect the surviving image.
pub struct FailpointFs {
    inner: Arc<dyn DurableFs>,
    ops: AtomicU64,
    kill_after: AtomicU64,
}

impl FailpointFs {
    /// Wrap `inner`, killing after `kill_after` mutating operations
    /// (`u64::MAX` = never, useful for counting a workload's ops).
    pub fn new(inner: Arc<dyn DurableFs>, kill_after: u64) -> Arc<FailpointFs> {
        Arc::new(FailpointFs {
            inner,
            ops: AtomicU64::new(0),
            kill_after: AtomicU64::new(kill_after),
        })
    }

    /// Mutating operations attempted so far (including failed ones).
    pub fn ops_attempted(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the kill point has been reached.
    pub fn killed(&self) -> bool {
        self.ops.load(Ordering::SeqCst) > self.kill_after.load(Ordering::SeqCst)
    }

    fn gate(&self) -> io::Result<()> {
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n >= self.kill_after.load(Ordering::SeqCst) {
            return Err(io::Error::other("failpoint: process killed"));
        }
        Ok(())
    }
}

impl DurableFs for FailpointFs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.gate()?;
        self.inner.write_all(name, data)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.gate()?;
        self.inner.append(name, data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.gate()?;
        self.inner.sync(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.gate()?;
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.gate()?;
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_crash_drops_unsynced_bytes() {
        let fs = MemFs::new();
        fs.append("wal", b"abc").unwrap();
        fs.sync("wal").unwrap();
        fs.append("wal", b"def").unwrap();
        let crashed = fs.crash_image();
        assert_eq!(crashed.read("wal").unwrap(), b"abc");
        assert_eq!(fs.clean_image().read("wal").unwrap(), b"abcdef");
    }

    #[test]
    fn failpoint_kills_all_mutations_after_boundary() {
        let mem = MemFs::new();
        let fp = FailpointFs::new(mem.clone(), 2);
        fp.append("wal", b"a").unwrap();
        fp.sync("wal").unwrap();
        assert!(fp.append("wal", b"b").is_err());
        assert!(fp.sync("wal").is_err());
        assert!(fp.killed());
        // Reads still work so the harness can take the crash image.
        assert_eq!(fp.read("wal").unwrap(), b"a");
        assert_eq!(mem.crash_image().read("wal").unwrap(), b"a");
    }
}
