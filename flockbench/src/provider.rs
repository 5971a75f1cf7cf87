//! A timing decorator around Flock's [`InferenceProvider`], installed with
//! `set_inference_provider` for the traced run.
//!
//! Parallel operators call the provider from several worker threads at
//! once. Summing those calls would report more time than passed on the
//! clock, so the decorator accumulates the *union* of the call intervals:
//! time during which at least one PREDICT call was in flight. That number
//! can be set beside an operator's wall time.

use crate::trace::Tracer;
use flock_sql::ast::PredictStrategy;
use flock_sql::exec::CancelToken;
use flock_sql::udf::{InferenceProvider, ProviderRef};
use flock_sql::{ColumnVector, DataType, Result};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Default)]
pub struct ProviderCounters {
    pub calls: AtomicU64,
    pub rows: AtomicU64,
    /// Wall time with at least one call in flight.
    pub wall_ns: AtomicU64,
}

pub struct TimingProvider {
    inner: ProviderRef,
    counters: Arc<ProviderCounters>,
    tracer: Arc<Tracer>,
    /// (calls in flight, when the first of them started).
    in_flight: Mutex<(u32, Option<Instant>)>,
}

impl TimingProvider {
    /// Wraps the provider `db` scores through and installs the wrapper in
    /// its place; returns the counters it will fill.
    pub fn install(db: &flock_sql::Database, tracer: &Arc<Tracer>) -> Arc<ProviderCounters> {
        let counters = Arc::new(ProviderCounters::default());
        db.set_inference_provider(Arc::new(TimingProvider {
            inner: db.inference_provider(),
            counters: counters.clone(),
            tracer: tracer.clone(),
            in_flight: Mutex::new((0, None)),
        }));
        counters
    }

    fn timed(&self, rows: usize, f: impl FnOnce() -> Result<ColumnVector>) -> Result<ColumnVector> {
        let (request, parent) = self.tracer.current();
        let span = self.tracer.open("provider.predict", request, parent);
        let started = Instant::now();
        {
            let mut g = self
                .in_flight
                .lock()
                .expect("in-flight lock is never held across a panic");
            if g.0 == 0 {
                g.1 = Some(started);
            }
            g.0 += 1;
        }
        let out = f();
        let ended = Instant::now();
        {
            let mut g = self
                .in_flight
                .lock()
                .expect("in-flight lock is never held across a panic");
            g.0 -= 1;
            if g.0 == 0 {
                let first = g.1.take().expect("set when the count left zero");
                self.counters
                    .wall_ns
                    .fetch_add((ended - first).as_nanos() as u64, Relaxed);
            }
        }
        self.tracer.close(span);
        self.counters.calls.fetch_add(1, Relaxed);
        self.counters.rows.fetch_add(rows as u64, Relaxed);
        out
    }
}

impl InferenceProvider for TimingProvider {
    fn output_type(&self, model: &str) -> Result<DataType> {
        self.inner.output_type(model)
    }

    fn input_arity(&self, model: &str) -> Result<usize> {
        self.inner.input_arity(model)
    }

    fn describe(&self, model: &str) -> Option<String> {
        self.inner.describe(model)
    }

    fn predict(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        strategy: PredictStrategy,
        user: &str,
    ) -> Result<ColumnVector> {
        let rows = inputs.first().map_or(0, ColumnVector::len);
        self.timed(rows, || self.inner.predict(model, inputs, strategy, user))
    }

    fn plan_epoch(&self) -> u64 {
        self.inner.plan_epoch()
    }

    fn predict_cancellable(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        strategy: PredictStrategy,
        user: &str,
        cancel: &CancelToken,
    ) -> Result<ColumnVector> {
        let rows = inputs.first().map_or(0, ColumnVector::len);
        self.timed(rows, || {
            self.inner
                .predict_cancellable(model, inputs, strategy, user, cancel)
        })
    }
}
