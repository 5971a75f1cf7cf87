//! Cooperative cancellation, statement deadlines, per-query budgets, and
//! the admission controller.
//!
//! A multi-tenant engine must be able to stop a running query without
//! killing the process: `Session::cancel()` and `SET statement_timeout`
//! both act through a [`CancelToken`] threaded into [`super::EvalContext`]
//! and checked at every operator entry, every morsel, and on a fixed row
//! stride inside long serial loops. Checks are a relaxed atomic load (plus
//! one clock read when a deadline is armed), so the fast path costs
//! nanoseconds per morsel; flockbench's per-statement `exec.*.ns` layers
//! carry it on the real path.
//!
//! Cancellation is *cooperative*: a worker finishes its current stride,
//! observes the flag, and unwinds with a typed error through ordinary
//! `Result` propagation — never a panic, so no lock is ever poisoned and
//! partial [`super::OpMetrics`] survive for post-mortem inspection.

use crate::error::{Result, SqlError};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many rows a tight serial loop processes between cancellation
/// checks. Matches the default morsel size so serial and parallel paths
/// observe cancellation with the same granularity.
pub const CANCEL_CHECK_STRIDE: usize = 4096;

/// A cheap, clonable cancellation token: a shared flag (set by
/// [`CancelHandle::cancel`]) plus an optional per-statement deadline.
///
/// `CancelToken::none()` never fires and is the default for embedded /
/// test callers that construct an `EvalContext` directly.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("has_deadline", &self.deadline.is_some())
            .finish()
    }
}

impl CancelToken {
    /// A token that never fires.
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// A token observing an externally-owned flag (the session's).
    pub fn from_flag(flag: Arc<AtomicBool>) -> CancelToken {
        CancelToken {
            flag: Some(flag),
            deadline: None,
        }
    }

    /// Arm a deadline `timeout` from now, keeping the flag.
    pub fn with_deadline(mut self, timeout: Duration) -> CancelToken {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Whether the cancel flag is currently set (deadline not consulted).
    pub fn is_cancelled(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// The cooperative check point. Returns `SqlError::Cancelled` when the
    /// flag is set, `SqlError::Timeout` when the deadline has passed, and
    /// `Ok(())` otherwise. Called from every operator entry and morsel
    /// loop; must stay cheap.
    #[inline]
    pub fn check(&self) -> Result<()> {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return Err(SqlError::Cancelled(
                    "query cancelled by session".into(),
                ));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(SqlError::Timeout(
                    "statement_timeout exceeded".into(),
                ));
            }
        }
        Ok(())
    }

    /// Stride helper for tight per-row loops: checks only every
    /// [`CANCEL_CHECK_STRIDE`] rows so the common case stays branch-cheap.
    #[inline]
    pub fn check_every(&self, row: usize) -> Result<()> {
        if row.is_multiple_of(CANCEL_CHECK_STRIDE) {
            self.check()?;
        }
        Ok(())
    }
}

/// A handle for cancelling a session's running statement from another
/// thread. Clonable; setting it is sticky until the session starts its
/// next statement.
#[derive(Clone)]
pub struct CancelHandle(Arc<AtomicBool>);

impl CancelHandle {
    pub fn new(flag: Arc<AtomicBool>) -> CancelHandle {
        CancelHandle(flag)
    }

    /// Request cancellation of the statement currently executing (if any).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-query resource budget: cumulative rows and approximate bytes
/// materialized across all operators of one statement. Zero limits mean
/// unlimited. Charged as each operator hands on an output chunk, so a
/// runaway join or cross product aborts with a typed error instead of
/// exhausting memory.
#[derive(Debug, Default)]
pub struct QueryBudget {
    max_rows: u64,
    max_bytes: u64,
    rows: AtomicU64,
    bytes: AtomicU64,
}

impl QueryBudget {
    /// No limits.
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// Limits on cumulative materialized rows / approximate bytes
    /// (0 = unlimited for each independently).
    pub fn limited(max_rows: u64, max_bytes: u64) -> QueryBudget {
        QueryBudget {
            max_rows,
            max_bytes,
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Charge one operator's output against the budget.
    pub fn charge(&self, rows: u64, bytes: u64) -> Result<()> {
        if self.max_rows == 0 && self.max_bytes == 0 {
            return Ok(());
        }
        let total_rows = self.rows.fetch_add(rows, Ordering::Relaxed) + rows;
        if self.max_rows > 0 && total_rows > self.max_rows {
            return Err(SqlError::Budget(format!(
                "query materialized {total_rows} rows, budget is {}",
                self.max_rows
            )));
        }
        let total_bytes = self.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if self.max_bytes > 0 && total_bytes > self.max_bytes {
            return Err(SqlError::Budget(format!(
                "query materialized ~{total_bytes} bytes, budget is {}",
                self.max_bytes
            )));
        }
        Ok(())
    }
}

/// Per-database admission controller: a counting semaphore over
/// concurrently executing queries. `try_acquire` never blocks — a full
/// database rejects immediately with a typed error so clients can shed
/// load instead of queueing unboundedly.
#[derive(Debug, Default)]
pub struct AdmissionController {
    active: AtomicUsize,
}

impl AdmissionController {
    pub fn new() -> AdmissionController {
        AdmissionController::default()
    }

    /// Queries currently holding a slot.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Try to claim a slot under `limit` (0 = unlimited; the slot is still
    /// counted so `active()` stays meaningful). Returns `None` when full.
    pub fn try_acquire(self: &Arc<Self>, limit: usize) -> Option<AdmissionSlot> {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if limit > 0 && cur >= limit {
                return None;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(AdmissionSlot(Arc::clone(self))),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// RAII admission slot: releases on drop, including every error/timeout
/// unwind path — a cancelled query can never leak its slot.
pub struct AdmissionSlot(Arc<AdmissionController>);

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_fires() {
        let t = CancelToken::none();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        for row in 0..10_000 {
            t.check_every(row).unwrap();
        }
    }

    #[test]
    fn flag_produces_cancelled() {
        let flag = Arc::new(AtomicBool::new(false));
        let t = CancelToken::from_flag(flag.clone());
        assert!(t.check().is_ok());
        CancelHandle::new(flag).cancel();
        match t.check() {
            Err(SqlError::Cancelled(_)) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_produces_timeout() {
        let t = CancelToken::none().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        match t.check() {
            Err(SqlError::Timeout(_)) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn cancel_flag_wins_over_deadline() {
        let flag = Arc::new(AtomicBool::new(true));
        let t = CancelToken::from_flag(flag).with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(t.check(), Err(SqlError::Cancelled(_))));
    }

    #[test]
    fn budget_charges_and_rejects() {
        let b = QueryBudget::limited(100, 0);
        assert!(b.charge(60, 480).is_ok());
        match b.charge(60, 480) {
            Err(SqlError::Budget(m)) => assert!(m.contains("rows"), "{m}"),
            other => panic!("expected Budget, got {other:?}"),
        }
        let b = QueryBudget::limited(0, 1000);
        assert!(b.charge(10, 800).is_ok());
        assert!(matches!(b.charge(10, 800), Err(SqlError::Budget(_))));
        // unlimited never rejects
        let b = QueryBudget::unlimited();
        assert!(b.charge(u64::MAX / 2, u64::MAX / 2).is_ok());
    }

    #[test]
    fn admission_slots_release_on_drop() {
        let c = Arc::new(AdmissionController::new());
        let s1 = c.try_acquire(2).expect("slot 1");
        let _s2 = c.try_acquire(2).expect("slot 2");
        assert!(c.try_acquire(2).is_none(), "limit reached");
        assert_eq!(c.active(), 2);
        drop(s1);
        assert_eq!(c.active(), 1);
        assert!(c.try_acquire(2).is_some());
        // limit 0 = unlimited, still counted
        let c = Arc::new(AdmissionController::new());
        let slots: Vec<_> = (0..64).map(|_| c.try_acquire(0).unwrap()).collect();
        assert_eq!(c.active(), 64);
        drop(slots);
        assert_eq!(c.active(), 0);
    }
}
