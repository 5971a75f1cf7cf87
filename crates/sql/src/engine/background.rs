//! Background work: the size-tiered part merger and the continuous-query
//! scheduler, driven by one ticker thread per open database.

use super::database::{Database, DbState, Shared};
use super::dml::append_rows;
use super::models::{hold_model, retrain_model, update_extension};
use crate::batch::RecordBatch;
use crate::catalog::Catalog;
use crate::column::ColumnVector;
use crate::error::{Result, SqlError};
use crate::exec::window::WindowAggState;
use crate::exec::EvalContext;
use crate::stream::{compile_cq, CompiledCq, CqSpec, StreamSpec, CQ_KIND, STREAM_KIND};
use crate::sync;
use crate::types::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, RwLock, Weak};
use std::time::{Duration, Instant};

/// A merge folds at least this many consecutive same-level parts.
const MERGE_MIN_PARTS: usize = 4;
/// ... and never produces a part with more rows than this.
const MERGE_MAX_ROWS: u64 = 262_144;
/// Decoded-bytes cap for a merge when no memory budget is set.
const MERGE_DEFAULT_BYTES: u64 = 16 << 20;
/// How often the ticker looks for merge work, and the longest it sleeps
/// before re-checking its stop flag.
const MERGE_INTERVAL: Duration = Duration::from_millis(25);

/// Decoded-size cap for one merge: half the table memory budget (the
/// streaming scan decodes one part at a time, so this keeps a merged
/// part's decode within the same envelope), or a fixed default.
fn merge_byte_cap(budget: u64) -> u64 {
    if budget > 0 {
        (budget / 2).max(1)
    } else {
        MERGE_DEFAULT_BYTES
    }
}

/// One size-tiered merge step: find a run of [`MERGE_MIN_PARTS`]+
/// consecutive same-level parts in some table's current version whose
/// combined decoded size fits under `byte_cap`, fold them into a single
/// next-level part, and splice it in place. Decode and encode run outside
/// the catalog lock (parts are immutable); the step holds handles on the
/// run and on the merged part throughout, so no checkpoint in between can
/// delete either. The splice re-verifies the run is still current before
/// swapping; a merged part that loses that race is simply dropped, and the
/// next checkpoint deletes it. Purely physical: no WAL record, no version
/// bump, no logical-digest change — the current version becomes a new
/// `Arc`, so cached plans over the old parts get rebound.
fn merge_step(state: &RwLock<DbState>, byte_cap: u64) -> bool {
    let (name, start, run, store) = {
        let st = sync::read(state);
        let Some(store) = st.catalog.part_store().cloned() else {
            return false;
        };
        let mut found = None;
        'tables: for name in st.catalog.table_names() {
            let Ok(table) = st.catalog.table(&name) else { continue };
            let parts = &table.current().parts;
            let mut i = 0;
            while i + MERGE_MIN_PARTS <= parts.len() {
                let level = parts[i].level;
                let mut j = i;
                let (mut rows, mut bytes) = (0u64, 0u64);
                while j < parts.len()
                    && parts[j].level == level
                    && rows + parts[j].rows <= MERGE_MAX_ROWS
                    && bytes + parts[j].decoded_bytes() <= byte_cap
                {
                    rows += parts[j].rows;
                    bytes += parts[j].decoded_bytes();
                    j += 1;
                }
                if j - i >= MERGE_MIN_PARTS {
                    found = Some((name.clone(), i, parts[i..j].to_vec()));
                    break 'tables;
                }
                i = if j > i { j } else { i + 1 };
            }
        }
        match found {
            Some((name, start, run)) => (name, start, run, store),
            None => return false,
        }
    };

    let mut batches = Vec::with_capacity(run.len());
    for m in &run {
        match store.read_part(m.id) {
            Ok(b) => batches.push(b),
            Err(_) => return false,
        }
    }
    let schema = batches[0].schema().clone();
    let Ok(folded) = RecordBatch::concat(schema, &batches) else {
        return false;
    };
    let Ok(merged) = store.write_part(&folded, run[0].level.saturating_add(1)) else {
        return false;
    };
    #[cfg(test)]
    tests::before_splice();

    let mut st = sync::write(state);
    let Ok(table) = st.catalog.table_mut(&name) else {
        return false;
    };
    let cur = table.current();
    let still_current = cur.parts.len() >= start + run.len()
        && cur.parts[start..start + run.len()]
            .iter()
            .zip(&run)
            .all(|(a, b)| a.id == b.id);
    if !still_current {
        return false;
    }
    let mut parts = cur.parts.clone();
    let tail = cur.data.clone();
    parts.splice(start..start + run.len(), [merged]);
    table.replace_current_with_parts(parts, tail);
    store.note_merged(run.len() as u64);
    true
}

/// The two background jobs (bits of [`Ticker::jobs`]).
const MERGE: u8 = 1;
const STREAMS: u8 = 2;

/// The background jobs that are started and the one thread that runs
/// them. The thread exists while at least one job is on; it holds only a
/// `Weak` to the database, so it never keeps a closed database alive.
#[derive(Default)]
pub(super) struct Ticker {
    jobs: Arc<AtomicU8>,
    thread: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
}

impl Ticker {
    /// Turn one job on or off. Turning one off first stops and joins the
    /// thread, so nothing of that job is in flight once this returns; the
    /// thread is then (re)started if any job is left on.
    fn set(&mut self, job: u8, on: bool, db: Weak<Shared>) {
        let jobs = if on {
            self.jobs.fetch_or(job, Ordering::SeqCst) | job
        } else {
            self.stop();
            self.jobs.fetch_and(!job, Ordering::SeqCst) & !job
        };
        if jobs != 0 && self.thread.is_none() {
            let stop = Arc::new(AtomicBool::new(false));
            let (flag, jobs) = (stop.clone(), self.jobs.clone());
            let handle = std::thread::Builder::new()
                .name("flock-ticker".into())
                .spawn(move || tick_loop(&db, &flag, &jobs))
                .expect("spawning background ticker");
            self.thread = Some((stop, handle));
        }
    }

    fn stop(&mut self) {
        if let Some((stop, handle)) = self.thread.take() {
            stop.store(true, Ordering::SeqCst);
            // The ticker thread itself may drop the last handle to the
            // database (it upgrades its `Weak` for each tick) and so run
            // this destructor; it must not join itself — it exits on its
            // own as soon as it sees the flag.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The ticker thread: sleep in short steps (so stop and drop are prompt
/// even under a long `stream_tick_ms`), and run each started job when its
/// deadline passes.
fn tick_loop(db: &Weak<Shared>, stop: &AtomicBool, jobs: &AtomicU8) {
    let mut merge_due = Instant::now() + MERGE_INTERVAL;
    let mut streams_due = merge_due;
    loop {
        let next_due = merge_due.min(streams_due);
        std::thread::sleep(
            next_due
                .saturating_duration_since(Instant::now())
                .min(MERGE_INTERVAL),
        );
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Some(shared) = db.upgrade() else { return };
        let db = Database { shared };
        let (now, jobs) = (Instant::now(), jobs.load(Ordering::SeqCst));
        if now >= merge_due {
            if jobs & MERGE != 0 {
                let cap = merge_byte_cap(db.table_memory_budget());
                // Keep merging while there is work, but yield to a due
                // scheduler tick (the merge pass resumes 25 ms later).
                while !stop.load(Ordering::SeqCst)
                    && merge_step(&db.shared.state, cap)
                    && Instant::now() < streams_due
                {}
            }
            merge_due = now + MERGE_INTERVAL;
        }
        if now >= streams_due {
            if jobs & STREAMS != 0 {
                db.stream_tick_now();
            }
            let tick = db.shared.stream_tick_ms.load(Ordering::Relaxed).max(1);
            streams_due = Instant::now() + Duration::from_millis(tick);
        }
    }
}

/// Per-continuous-query runtime state, kept outside the catalog: the
/// compiled per-window pipeline plus incremental ingest/window state.
/// Purely a cache — a crash (or an emission conflict) discards it and the
/// next tick rebuilds it from the stream's retained rows, with the CQ's
/// durable `next_emit_ms` cursor suppressing re-emission of windows that
/// already reached the sink.
pub(super) struct CqRuntime {
    /// Options epoch the pipeline was compiled under (provider / exec
    /// option changes recompile; the query text itself is immutable).
    options_epoch: u64,
    compiled: CompiledCq,
    /// Stream rows already folded into window state. The stream table is
    /// append-only, so `slice(rows_seen..)` is exactly the new events.
    rows_seen: usize,
    /// Max event time over *all* ingested rows (pre-WHERE), driving the
    /// watermark even when the filter drops every recent event.
    max_event_ms: Option<i64>,
    state: WindowAggState,
    /// Late events already folded into the engine-wide counter.
    late_reported: u64,
}

impl Database {
    /// Synchronously run merge steps until no more apply (what the
    /// background thread does continuously). Returns merges performed.
    /// Deterministic alternative for tests and fault-injection harnesses.
    pub fn merge_now(&self) -> usize {
        let cap = merge_byte_cap(self.table_memory_budget());
        let mut n = 0;
        while merge_step(&self.shared.state, cap) {
            n += 1;
        }
        n
    }

    /// Start background part merging (idempotent; no-op for in-memory
    /// databases). [`Database::open`] starts it automatically;
    /// [`Database::open_with_fs`] leaves it off so fault-injection runs
    /// stay deterministic.
    pub fn start_background_merge(&self) {
        if sync::read(&self.shared.state).catalog.part_store().is_some() {
            self.set_job(MERGE, true);
        }
    }

    /// Stop background merging; returns once no merge is in flight.
    pub fn stop_background_merge(&self) {
        self.set_job(MERGE, false);
    }

    /// Start the background continuous-query scheduler (idempotent).
    /// [`Database::open`] starts it automatically; in-memory databases and
    /// fault-injection harnesses call [`Database::stream_tick_now`] for a
    /// deterministic, synchronous tick instead.
    pub fn start_stream_scheduler(&self) {
        self.set_job(STREAMS, true);
    }

    /// Stop the continuous-query scheduler; returns once no background
    /// tick is in flight.
    pub fn stop_stream_scheduler(&self) {
        self.set_job(STREAMS, false);
    }

    fn set_job(&self, job: u8, on: bool) {
        let db = Arc::downgrade(&self.shared);
        sync::lock(&self.shared.ticker).set(job, on, db);
    }

    /// Set the scheduler tick interval (also `SET stream_tick_ms = <ms>`).
    pub fn set_stream_tick_ms(&self, ms: u64) {
        self.shared.stream_tick_ms.store(ms.max(1), Ordering::Relaxed);
    }

    /// Run one scheduler tick synchronously: feed every registered
    /// continuous query its newly appended stream rows, close every window
    /// the watermark has passed, and emit closed windows into their sink
    /// tables. Returns the number of windows emitted. The deterministic
    /// alternative to the background scheduler for tests and harnesses
    /// (and what the background scheduler itself runs).
    ///
    /// Errors are per-CQ: a failing query is counted, its runtime
    /// discarded (the next tick rebuilds from the stream's retained rows
    /// under the durable emission cursor), and the others proceed.
    pub fn stream_tick_now(&self) -> usize {
        // Ticks run one at a time, each on a catalog read after the one
        // before it committed: a snapshot taken before the lock could hold
        // an emission cursor the previous tick has since advanced, and
        // re-emit its windows.
        let mut runtimes = sync::lock(&self.shared.stream_runtime);
        let catalog = self.catalog();
        let cqs: Vec<(String, String, flock_json::Value)> = catalog
            .extensions_of_kind(CQ_KIND)
            .into_iter()
            .map(|o| (o.name.clone(), o.owner.clone(), o.current().metadata.clone()))
            .collect();
        let metrics = &self.shared.metrics;
        runtimes.retain(|k, _| catalog.has_extension(CQ_KIND, k));
        let mut emitted = 0usize;
        for (name, owner, meta) in cqs {
            metrics.stream_cq_ticks.fetch_add(1, Ordering::Relaxed);
            match self.tick_cq(&mut runtimes, &catalog, &name, &owner, &meta) {
                Ok(n) => emitted += n,
                Err(_) => {
                    runtimes.remove(&name);
                    metrics.stream_cq_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        emitted
    }

    /// Tick one continuous query against a catalog snapshot: ingest the
    /// stream's new rows into incremental window state, close windows
    /// under the watermark, and emit them transactionally (sink append +
    /// cursor advance + any policy action commit or fail as one).
    fn tick_cq(
        &self,
        runtimes: &mut HashMap<String, CqRuntime>,
        catalog: &Catalog,
        name: &str,
        owner: &str,
        meta: &flock_json::Value,
    ) -> Result<usize> {
        let metrics = &self.shared.metrics;
        let spec = CqSpec::from_metadata(meta)?;
        let stream_spec = StreamSpec::from_metadata(
            &catalog
                .extension(STREAM_KIND, &spec.stream)?
                .current()
                .metadata,
        )?;
        let stream = catalog.table(&spec.stream)?.current();
        let n = stream.total_rows();
        let provider = self.inference_provider();
        let opt_epoch = self.shared.options_epoch.load(Ordering::Relaxed);

        // (Re)build the runtime: missing, or the stream shrank under it
        // (dropped and recreated), or after a process restart. The durable
        // cursor suppresses re-emission during the replay below.
        if runtimes.get(name).is_some_and(|rt| rt.rows_seen > n) {
            runtimes.remove(name);
        }
        let rt = match runtimes.entry(name.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(slot) => {
                let compiled = compile_cq(&spec, catalog, provider.as_ref())?;
                let state = WindowAggState::new(
                    spec.window.size_ms,
                    spec.window.slide_ms,
                    compiled.agg_calls.clone(),
                );
                slot.insert(CqRuntime {
                    options_epoch: opt_epoch,
                    compiled,
                    rows_seen: 0,
                    max_event_ms: None,
                    state,
                    late_reported: 0,
                })
            }
        };
        if rt.options_epoch != opt_epoch {
            // provider / exec options moved: recompile the pipeline, keep
            // the window state (the query text is immutable).
            rt.compiled = compile_cq(&spec, catalog, provider.as_ref())?;
            rt.options_epoch = opt_epoch;
        }

        let eval_ctx = EvalContext::new(provider.clone(), owner.to_string(), 1);

        // Ingest rows appended since the last tick, in insertion order —
        // the same order the batch aggregate would scan them, which is the
        // bit-equality contract. Parts wholly behind the cursor are never
        // read.
        if n > rt.rows_seen {
            let fresh = stream
                .scan(catalog.part_store())
                .skip_rows(rt.rows_seen)
                .collect()?;
            rt.rows_seen = n;
            let et_all = event_times(&fresh, rt.compiled.et_index)?;
            if let Some(m) = et_all.iter().copied().max() {
                rt.max_event_ms = Some(rt.max_event_ms.map_or(m, |c| c.max(m)));
            }
            let (filtered, et) = match &rt.compiled.where_pred {
                Some(p) => {
                    let mask = p.eval_mask(&fresh, &eval_ctx)?;
                    let kept: Vec<i64> = et_all
                        .iter()
                        .zip(&mask)
                        .filter(|(_, keep)| **keep)
                        .map(|(t, _)| *t)
                        .collect();
                    (fresh.filter(&mask)?, kept)
                }
                None => (fresh, et_all),
            };
            if filtered.num_rows() > 0 {
                let group_cols: Vec<ColumnVector> = rt
                    .compiled
                    .group_exprs
                    .iter()
                    .map(|e| e.eval(&filtered, &eval_ctx))
                    .collect::<Result<_>>()?;
                let agg_cols: Vec<Option<ColumnVector>> = rt
                    .compiled
                    .agg_args
                    .iter()
                    .map(|a| a.as_ref().map(|e| e.eval(&filtered, &eval_ctx)).transpose())
                    .collect::<Result<_>>()?;
                rt.state.observe(&et, &group_cols, &agg_cols);
            }
            let late = rt.state.late_events;
            if late > rt.late_reported {
                metrics
                    .stream_late_events
                    .fetch_add(late - rt.late_reported, Ordering::Relaxed);
                rt.late_reported = late;
            }
        }

        // Close windows under the watermark, ascending by start.
        let Some(max_et) = rt.max_event_ms else {
            return Ok(0);
        };
        let watermark = max_et.saturating_sub(stream_spec.lag_ms);
        let closed = rt.state.close_ready(watermark);
        let Some(last_start) = closed.last().map(|c| c.start) else {
            return Ok(0);
        };
        // Replay suppression: windows below the durable cursor already
        // reached the sink before a crash/rebuild.
        let emit: Vec<_> = closed
            .into_iter()
            .filter(|c| spec.next_emit_ms.is_none_or(|cursor| c.start >= cursor))
            .collect();
        if emit.is_empty() {
            return Ok(0);
        }
        let emitted = emit.len();

        // Finalize each window: aggregate batch -> HAVING -> projection
        // (PREDICT here scores each window in one provider call).
        let mut sink_rows: Vec<Vec<Value>> = Vec::new();
        for w in &emit {
            let rows: Vec<Vec<Value>> = w
                .keys
                .iter()
                .zip(&w.aggs)
                .map(|(k, a)| k.0.iter().cloned().chain(a.iter().cloned()).collect())
                .collect();
            let mut agg_batch = RecordBatch::from_rows(rt.compiled.agg_schema.clone(), &rows)?;
            if let Some(h) = &rt.compiled.having {
                let col = h.eval(&agg_batch, &eval_ctx)?;
                let mask: Vec<bool> = (0..agg_batch.num_rows())
                    .map(|i| col.get(i).as_bool() == Some(true))
                    .collect();
                agg_batch = agg_batch.filter(&mask)?;
            }
            metrics.stream_windows_closed.fetch_add(1, Ordering::Relaxed);
            if agg_batch.num_rows() == 0 {
                continue;
            }
            let proj_cols: Vec<ColumnVector> = rt
                .compiled
                .proj_exprs
                .iter()
                .map(|e| e.eval(&agg_batch, &eval_ctx))
                .collect::<Result<_>>()?;
            if !rt.compiled.predict_models.is_empty() {
                metrics.stream_predict_windows.fetch_add(1, Ordering::Relaxed);
            }
            for r in 0..agg_batch.num_rows() {
                let mut row = Vec::with_capacity(1 + proj_cols.len());
                row.push(Value::Int(w.start));
                row.extend(proj_cols.iter().map(|c| c.get(r)));
                sink_rows.push(row);
            }
        }
        let sink_batch = RecordBatch::from_rows(
            Arc::new(rt.compiled.sink_schema.clone()),
            &sink_rows,
        )?;

        // Policy check over the emitted rows (the sink shape the breach
        // predicate was compiled against).
        let mut breach_rows = 0usize;
        if let Some(p) = &rt.compiled.when_pred {
            if sink_batch.num_rows() > 0 {
                let col = p.eval(&sink_batch, &eval_ctx)?;
                breach_rows = (0..sink_batch.num_rows())
                    .filter(|&i| col.get(i).as_bool() == Some(true))
                    .count();
            }
        }

        // One transaction: sink append + durable cursor advance + any
        // policy action. A crash lands wholly before or wholly after.
        let rows_emitted = sink_batch.num_rows();
        let mut new_spec = spec.clone();
        new_spec.next_emit_ms = Some(last_start + spec.window.slide_ms);
        self.session(owner).autocommit("", Default::default(), |txn, ctx| {
            if sink_batch.num_rows() > 0 {
                append_rows(txn, &spec.sink, sink_batch, None)?;
            }
            update_extension(txn, CQ_KIND, name, Vec::new(), new_spec.to_metadata(), false)?;
            if breach_rows > 0 {
                txn.audit(
                    "POLICY BREACH",
                    name,
                    &format!("{breach_rows} breaching row(s) in closed window(s)"),
                );
                if let Some(m) = &spec.hold_model {
                    hold_model(txn, m)?;
                }
                if let Some(m) = &spec.retrain_model {
                    retrain_model(txn, ctx, m, &format!("policy breach in '{name}'"))?;
                }
            }
            Ok(())
        })?;
        metrics
            .stream_rows_emitted
            .fetch_add(rows_emitted as u64, Ordering::Relaxed);
        if breach_rows > 0 {
            metrics.stream_policy_breaches.fetch_add(1, Ordering::Relaxed);
        }
        Ok(emitted)
    }
}

/// Extract event times (ms) from a stream batch's event-time column.
/// A NULL or non-integer event time is a hard error — the watermark
/// cannot advance past a row whose position in time is unknown.
fn event_times(batch: &RecordBatch, et_index: usize) -> Result<Vec<i64>> {
    let col = batch.column(et_index);
    let mut out = Vec::with_capacity(batch.num_rows());
    for i in 0..batch.num_rows() {
        match col.get(i) {
            Value::Int(t) => out.push(t),
            other => {
                return Err(SqlError::Constraint(format!(
                    "event-time column holds non-integer value {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{DurabilityOptions, MemFs};
    use std::cell::RefCell;

    thread_local! {
        static BEFORE_SPLICE: RefCell<Option<Box<dyn FnOnce()>>> = RefCell::new(None);
    }

    /// Runs (once) the hook a test set, between the merger's part write
    /// and its splice.
    pub(super) fn before_splice() {
        if let Some(hook) = BEFORE_SPLICE.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    fn count_and_sum(db: &Database) -> String {
        let b = db.query("SELECT COUNT(*), SUM(k) FROM t").unwrap();
        format!("{:?}", b.row(0))
    }

    /// A checkpoint that lands between the merger's write and its splice
    /// prunes every part file no retained checkpoint references; the
    /// merged part is not referenced yet, and must survive it.
    #[test]
    fn checkpoint_between_merge_write_and_splice_keeps_the_merged_part() {
        let opts = DurabilityOptions {
            checkpoint_every_commits: 0,
            ..DurabilityOptions::default()
        };
        let mem = MemFs::new();
        let db = Database::open_with_fs(mem.clone(), opts).unwrap();
        db.set_table_memory_budget(2048);
        db.execute("CREATE TABLE t (k INT, v DOUBLE)").unwrap();
        for lo in (0..640).step_by(64) {
            let rows: Vec<String> = (lo..lo + 64).map(|k| format!("({k}, {k}.5)")).collect();
            db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .unwrap();
        }
        db.checkpoint_now().unwrap();
        let parts_before = db.catalog().table("t").unwrap().current().parts.len();
        assert!(parts_before >= 4, "{parts_before} parts");
        let want = count_and_sum(&db);

        let ran = std::rc::Rc::new(std::cell::Cell::new(false));
        let (hook_db, hook_ran) = (db.clone(), ran.clone());
        BEFORE_SPLICE.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                hook_db.checkpoint_now().unwrap();
                hook_ran.set(true);
            }))
        });
        db.set_table_memory_budget(0);
        assert!(db.merge_now() > 0, "level-0 parts must merge");
        assert!(ran.get(), "the hook ran between write and splice");
        let parts_after = db.catalog().table("t").unwrap().current().parts.len();
        assert!(parts_after < parts_before);

        assert_eq!(count_and_sum(&db), want, "merged table must stay readable");
        db.checkpoint_now().unwrap();
        let digest = db.state_digest();
        drop(db);
        for image in [mem.clean_image(), mem.crash_image()] {
            let rec = Database::open_with_fs(image, opts).unwrap();
            assert_eq!(rec.state_digest(), digest);
            assert_eq!(count_and_sum(&rec), want);
        }
    }
}
