//! The four workloads and what they share: the episode record, the
//! per-run context, and seeded-generator helpers.
//!
//! A *run* repeats *episodes* until `--seconds` of timed-phase time has
//! been measured. One episode is: set up a fresh database (timed as
//! `setup_s`), warm up, replay a fixed list of operations generated from
//! the seed (the timed phase), then — for the on-disk workloads — drop the
//! handle, reopen, and check the recovered state. Every episode of a run
//! replays the same operation list, so counts made by the program repeat
//! exactly from episode to episode and from run to run.

pub mod ingest_durable;
pub mod predict_scan;
pub mod scan_parts;
pub mod serve_point;

use crate::layers::Layers;
use crate::trace::Tracer;
use flock_rng::rngs::StdRng;
use flock_rng::SeedableRng;
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Names accepted by `--workload`, in reporting order.
pub const NAMES: [&str; 4] = [
    "serve_point",
    "predict_scan",
    "ingest_durable",
    "scan_parts",
];

/// `--smoke` divides every size and operation count by this.
pub const SMOKE_DIVISOR: usize = 20;

/// Full-size or smoke-size counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// `full` at full size, a twentieth of it (at least 1) under `--smoke`.
    pub fn n(&self, full: usize) -> usize {
        if self.smoke {
            (full / SMOKE_DIVISOR).max(1)
        } else {
            full
        }
    }
}

/// What one episode is given.
pub struct Ctx {
    /// An empty directory this episode may fill; removed by the caller.
    pub dir: PathBuf,
    /// `Some` in the traced run: spans are recorded and the filesystem
    /// and inference-provider decorators also time their calls.
    pub tracer: Option<Arc<Tracer>>,
}

/// One timed operation: which kind of the mix it was (an index into
/// [`Workload::kinds`]) and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub kind: u8,
    pub ns: u64,
}

/// What one episode measured.
#[derive(Debug, Default, Clone)]
pub struct Episode {
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// One sample per timed operation: request sent to reply verified.
    pub lat: Vec<Sample>,
    /// Timed operations plus every correctness check made around them.
    pub attempted: u64,
    /// Operations that failed, were refused after the retry budget, or
    /// returned a wrong result; failed checks count here too.
    pub failed: u64,
    /// Rows scored, durably ingested, or scanned in the timed phase.
    pub rows: u64,
    /// Drop handle → reopened and first query answered (on-disk only).
    pub recover_s: Option<f64>,
    /// Bytes of user data ingested, and bytes the directory then held.
    pub user_bytes: u64,
    pub dir_bytes: u64,
    /// Longest operation during which a checkpoint was written.
    pub checkpoint_stall_us: f64,
    /// Plain counters read from the program at the end of the timed
    /// phase, already under their per-layer metric names.
    pub counters: BTreeMap<&'static str, f64>,
    /// Timings the traced run takes inside the timed phase (a statement
    /// kind's span, a decorator's busy time), by per-layer metric name.
    /// Empty in the untraced run.
    pub layer_samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ctx {
    /// The tracer of a context that is known to be traced.
    pub fn tracer(&self) -> &Arc<Tracer> {
        self.tracer
            .as_ref()
            .expect("the layer replay only runs traced")
    }

    /// Runs one request of a single-client workload. In the traced run it
    /// sits under a `client.request` span, which the filesystem and
    /// provider decorators parent their own spans to.
    pub fn request<T>(&self, id: u64, f: impl FnOnce() -> T) -> T {
        let Some(tracer) = &self.tracer else {
            return f();
        };
        let span = tracer.open("client.request", id, None);
        tracer.set_current(id, Some(span));
        let out = f();
        tracer.close(span);
        tracer.set_current(0, None);
        out
    }
}

impl Episode {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("flockbench: check failed: {what}");
        }
    }
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// The operation kinds of the mix, indexed by [`Sample::kind`].
    fn kinds(&self) -> &'static [&'static str];
    /// Sizes and operation counts, for the output record.
    fn config(&self) -> Json;
    /// One set-up, warm-up, timed phase, and (on disk) recovery check.
    fn episode(&self, ctx: &Ctx) -> Episode;
    /// The traced run's layer replay: each layer's public functions are
    /// called on this workload's own statements and data, under spans.
    /// `ctx.tracer` is always set here.
    fn layers(&self, ctx: &Ctx, out: &mut Layers);
}

/// Builds the named workload's inputs from the seed.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve_point" => Box::new(serve_point::ServePoint::generate(seed, scale)),
        "predict_scan" => Box::new(predict_scan::PredictScan::generate(seed, scale)),
        "ingest_durable" => Box::new(ingest_durable::IngestDurable::generate(seed, scale)),
        "scan_parts" => Box::new(scan_parts::ScanParts::generate(seed, scale)),
        _ => return None,
    })
}

/// `n` operation kinds in exact proportion to `shares`, evenly interleaved:
/// each position goes to the kind furthest behind its share. The order is
/// the same for every seed. The seed decides what each operation touches,
/// never how much work a run holds or when it falls due — on the write
/// path an `UPDATE` costs more the later it comes, so even a seeded
/// *order* of the same counts made one seed a third slower than another.
pub fn even_mix(n: usize, shares: &[u32]) -> Vec<u8> {
    let total: u64 = shares.iter().map(|s| u64::from(*s)).sum();
    let mut dealt = vec![0u64; shares.len()];
    (1..=n as u64)
        .map(|position| {
            // Furthest behind: largest (share * position - dealt * total).
            let kind = (0..shares.len())
                .max_by_key(|&k| {
                    (u64::from(shares[k]) * position) as i128 - (dealt[k] * total) as i128
                })
                .expect("at least one kind");
            dealt[kind] += 1;
            kind as u8
        })
        .collect()
}

/// A generator stream for one purpose (`salt`) of one run seed, so adding
/// draws to one stream never shifts another.
pub fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Opens (or reopens) an on-disk Flock database in `dir` through the
/// counting filesystem, with default durability — `fsync_on_commit = true`,
/// a checkpoint every 64 commits: what a user gets. `open_with_fs` leaves
/// the merger and stream scheduler threads off; the harness drives them
/// (`merge_now`, `stream_tick_now`) so that counts repeat.
pub fn open_disk(
    dir: &std::path::Path,
    counters: &Arc<crate::fsx::FsCounters>,
    tracer: &Option<Arc<Tracer>>,
    table_memory_budget: u64,
) -> flock_core::FlockDb {
    let std_fs = flock_sql::StdFs::new(dir).expect("database directory can be created");
    let fs = crate::fsx::CountingFs::new(Arc::new(std_fs), counters.clone(), tracer.clone());
    let db = flock_core::FlockDb::open_with_fs(fs, flock_sql::DurabilityOptions::default())
        .expect("database opens");
    db.database().set_table_memory_budget(table_memory_budget);
    db
}

/// Total size of the regular files directly inside `dir` (Flock's
/// database directory is flat).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The engine's cumulative counters (by their `flock_metrics` names) at
/// the two ends of a timed phase.
pub struct EngineCounters {
    before: BTreeMap<&'static str, u64>,
    after: BTreeMap<&'static str, u64>,
}

impl EngineCounters {
    /// Reads the counters at the start of the phase.
    pub fn start(db: &flock_sql::Database) -> EngineCounters {
        let before: BTreeMap<&'static str, u64> = db.engine_metrics().rows().into_iter().collect();
        EngineCounters {
            after: before.clone(),
            before,
        }
    }

    /// Reads them again at the end.
    pub fn finish(&mut self, db: &flock_sql::Database) {
        self.after = db.engine_metrics().rows().into_iter().collect();
    }

    /// Value at the end of the phase.
    pub fn now(&self, name: &str) -> f64 {
        self.after.get(name).copied().unwrap_or(0) as f64
    }

    /// Change over the phase.
    pub fn delta(&self, name: &str) -> f64 {
        self.now(name) - self.before.get(name).copied().unwrap_or(0) as f64
    }

    /// Files the plan-cache and compiled-pipeline-cache counters under
    /// their per-layer names.
    pub fn caches_into(&self, out: &mut BTreeMap<&'static str, f64>) {
        let (hits, misses) = (
            self.delta("plan_cache_hits"),
            self.delta("plan_cache_misses"),
        );
        out.insert("plancache.hits", hits);
        out.insert("plancache.misses", misses);
        out.insert(
            "plancache.invalidations",
            self.delta("plan_cache_invalidations"),
        );
        out.insert("plancache.hit_ratio", ratio(hits, hits + misses));
        out.insert("registry.compile_hits", self.delta("predict_compile_hits"));
        out.insert(
            "registry.compile_misses",
            self.delta("predict_compile_misses"),
        );
    }

    /// Files the part store's inventory under its per-layer names.
    pub fn parts_into(&self, out: &mut BTreeMap<&'static str, f64>) {
        let on_disk = self.now("part_bytes_on_disk");
        out.insert("parts.total", self.now("parts_total"));
        out.insert("parts.bytes_on_disk", on_disk);
        out.insert(
            "parts.compression_ratio",
            ratio(self.now("part_bytes_uncompressed"), on_disk),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_mix_holds_the_shares_and_spreads_each_kind() {
        let kinds = even_mix(160, &[70, 10, 10, 10]);
        let count = |k: u8| kinds.iter().filter(|x| **x == k).count();
        assert_eq!([count(0), count(1), count(2), count(3)], [112, 16, 16, 16]);
        // Every window of ten holds one of each minor kind.
        for window in kinds.chunks(10) {
            assert_eq!(window.iter().filter(|k| **k == 1).count(), 1, "{window:?}");
        }
        let kinds = even_mix(4_000, &[450, 225, 225, 100]);
        let count = |k: u8| kinds.iter().filter(|x| **x == k).count();
        assert_eq!(
            [count(0), count(1), count(2), count(3)],
            [1_800, 900, 900, 400]
        );
        assert_eq!(even_mix(7, &[1, 1]).len(), 7);
    }
}
