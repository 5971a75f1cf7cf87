//! `FlockDb`: the paper's architecture assembled — a DBMS whose catalog
//! stores models as versioned, securable derived data, whose queries can
//! score them with `PREDICT`, and whose planner runs the cross-optimizer.

use crate::meta::{Lineage, ModelMetadata};
use crate::provider::FlockInferenceProvider;
use crate::registry::{ModelRegistry, RegisteredModel};
use crate::xopt::{CrossOptimizer, XOptConfig};
use flock_ml::{
    fonnx, train, ColumnPipeline, Frame, FrameCol, Matrix, NumericStep, Pipeline,
};
use flock_sql::engine::{ObjectKey, QueryResult};
use flock_sql::lexer::{tokenize, Token};
use flock_sql::trainer::{ModelTrainer, TrainSpec, TrainedArtifact};
use flock_sql::{Database, DataType, RecordBatch, Result, Schema, Session, SqlError, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The extension-object kind under which models are stored.
pub const MODEL_KIND: &str = "model";

/// A portable, self-contained model artifact: FONNX payload plus the
/// catalog metadata (inputs, output, kind, lineage). Serializable, so it
/// can cross process/machine boundaries — the train-in-cloud /
/// score-at-the-edge hand-off.
#[derive(Debug, Clone)]
pub struct ModelPackage {
    pub name: String,
    pub version: u64,
    pub payload: Vec<u8>,
    pub metadata: flock_json::Value,
}

impl ModelPackage {
    /// Serialize the package (for files / network transfer), hand-written
    /// over the JSON document model.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut doc = flock_json::Map::new();
        doc.insert("name".to_string(), flock_json::Value::from(self.name.as_str()));
        doc.insert("version".to_string(), flock_json::Value::from(self.version));
        doc.insert(
            "payload".to_string(),
            flock_json::Value::Array(
                self.payload.iter().map(|&b| flock_json::Value::from(b)).collect(),
            ),
        );
        doc.insert("metadata".to_string(), self.metadata.clone());
        flock_json::Value::Object(doc).to_string().into_bytes()
    }

    pub fn from_bytes(bytes: &[u8]) -> Result<ModelPackage> {
        let bad = |what: &str| SqlError::Execution(format!("invalid model package: {what}"));
        let doc: flock_json::Value = flock_json::from_slice(bytes)
            .map_err(|e| SqlError::Execution(format!("invalid model package: {e}")))?;
        let name = doc
            .get("name")
            .and_then(flock_json::Value::as_str)
            .ok_or_else(|| bad("missing name"))?
            .to_string();
        let version = doc
            .get("version")
            .and_then(flock_json::Value::as_u64)
            .ok_or_else(|| bad("missing version"))?;
        let payload = doc
            .get("payload")
            .and_then(flock_json::Value::as_array)
            .ok_or_else(|| bad("missing payload"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .filter(|&b| b <= u8::MAX as u64)
                    .map(|b| b as u8)
                    .ok_or_else(|| bad("payload byte out of range"))
            })
            .collect::<Result<Vec<u8>>>()?;
        let metadata = doc
            .get("metadata")
            .cloned()
            .ok_or_else(|| bad("missing metadata"))?;
        Ok(ModelPackage {
            name,
            version,
            payload,
            metadata,
        })
    }
}

/// A Flock database: SQL engine + model registry + cross-optimizer.
#[derive(Clone)]
pub struct FlockDb {
    db: Database,
    registry: Arc<ModelRegistry>,
    xopt: Arc<CrossOptimizer>,
    provider: Arc<FlockInferenceProvider>,
}

impl Default for FlockDb {
    fn default() -> Self {
        Self::new()
    }
}

impl FlockDb {
    pub fn new() -> Self {
        Self::with_config(XOptConfig::default())
    }

    pub fn with_config(config: XOptConfig) -> Self {
        Self::with_database(Database::new(), config)
    }

    /// Open (or create) a durable Flock database in a directory: the SQL
    /// engine recovers its catalog from the write-ahead log, and the model
    /// registry is rebuilt from the recovered extension objects — deployed
    /// models come back scorable, with compiled-pipeline caches correctly
    /// invalidated (cache keys include the recovered model versions).
    pub fn open(
        path: impl AsRef<std::path::Path>,
        opts: flock_sql::DurabilityOptions,
    ) -> Result<FlockDb> {
        Ok(Self::with_database(Database::open(path, opts)?, XOptConfig::default()))
    }

    /// Open a durable Flock database on any [`flock_sql::DurableFs`] (the
    /// crash-recovery tests run against in-memory filesystems).
    pub fn open_with_fs(
        fs: Arc<dyn flock_sql::DurableFs>,
        opts: flock_sql::DurabilityOptions,
    ) -> Result<FlockDb> {
        let db = Database::open_with_fs(fs, opts)?;
        Ok(Self::with_database(db, XOptConfig::default()))
    }

    /// Assemble the Flock layers around an existing engine (fresh or
    /// recovered): the registry loads the catalog's models once, then
    /// follows every commit through the engine's commit hook.
    pub fn with_database(db: Database, config: XOptConfig) -> Self {
        let registry = Arc::new(ModelRegistry::new());
        let provider = Arc::new(FlockInferenceProvider::new(registry.clone()));
        db.set_inference_provider(provider.clone());
        // `CREATE MODEL ... AS SELECT` / `RETRAIN MODEL` fit through here.
        db.set_model_trainer(Arc::new(FlockTrainer));
        // The one path by which the scoring registry follows committed
        // model writes, from any session or from the engine's scheduler
        // thread (policy-triggered RETRAIN). Weak: the hook must not keep
        // a dropped FlockDb's registry alive.
        let weak_registry = Arc::downgrade(&registry);
        db.add_commit_hook(Arc::new(move |catalog, keys| {
            let model_written = keys
                .iter()
                .any(|k| matches!(k, ObjectKey::Extension { kind, .. } if kind == MODEL_KIND));
            if model_written {
                if let Some(registry) = weak_registry.upgrade() {
                    sync_registry_from(catalog, &registry);
                }
            }
        }));
        let xopt = Arc::new(CrossOptimizer::new(registry.clone(), config));
        db.add_plan_rewriter(xopt.clone());
        // Surface the compiled-pipeline cache counters and the PREDICT
        // call counters as flock_metrics rows alongside the engine's
        // execution counters.
        let metrics = db.engine_metrics();
        for (name, counter) in registry.cache_counters() {
            metrics.register(name, counter);
        }
        for (name, counter) in provider.stats.counters() {
            metrics.register(name, counter);
        }
        let flock = FlockDb {
            db,
            registry,
            xopt,
            provider,
        };
        flock.sync_registry();
        flock
    }

    /// The underlying SQL engine.
    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    pub fn provider(&self) -> &Arc<FlockInferenceProvider> {
        &self.provider
    }

    pub fn xopt_config(&self) -> XOptConfig {
        self.xopt.config()
    }

    /// Switch cross-optimizer rules; cached plans are re-planned under
    /// them. Execution options (threads, timeout, admission, budgets)
    /// belong to [`Database::set_exec_options`] and are left as they are.
    pub fn set_xopt_config(&self, config: XOptConfig) {
        self.xopt.set_config(config);
        self.db.invalidate_plans();
    }

    /// Open a session as `user`.
    pub fn session(&self, user: &str) -> FlockSession {
        FlockSession {
            inner: self.db.session(user),
            flock: self.clone(),
        }
    }

    /// Whether `user` exists in the committed catalog ("admin" is the
    /// bootstrap superuser). The network server authenticates `Hello`
    /// against this before opening a session; sessions themselves accept
    /// any name, with per-statement access control doing the real work.
    pub fn user_exists(&self, user: &str) -> bool {
        self.db.with_catalog(|c| c.access.user_exists(user))
    }

    /// Convenience: execute as admin.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.session("admin").execute(sql)
    }

    /// Convenience: query as admin.
    pub fn query(&self, sql: &str) -> Result<RecordBatch> {
        self.session("admin").query(sql)
    }

    /// Reconcile the scoring registry with the committed catalog from
    /// scratch, under the catalog's read lock. Done once when the layers
    /// are assembled; commits keep it in step after that, so callers need
    /// this only for a registry they edited directly.
    pub fn sync_registry(&self) {
        self.db
            .with_catalog(|catalog| sync_registry_from(catalog, &self.registry));
    }

    /// Fetch the metadata of a deployed model.
    pub fn model_metadata(&self, name: &str) -> Result<Arc<ModelMetadata>> {
        self.registry
            .get(name)
            .map(|m| Arc::clone(&m.metadata))
            .ok_or_else(|| SqlError::Catalog(format!("model '{name}' is not deployed")))
    }
}

/// A session against a Flock database: plain SQL — which includes the
/// engine-level model DDL (`CREATE MODEL ... AS SELECT`, `RETRAIN
/// MODEL`, `DROP MODEL`) — plus the catalog reports (`SHOW MODELS`,
/// `DESCRIBE MODEL`) and Rust-level deployment APIs.
pub struct FlockSession {
    inner: Session,
    flock: FlockDb,
}

impl FlockSession {
    pub fn user(&self) -> &str {
        self.inner.user()
    }

    pub fn in_transaction(&self) -> bool {
        self.inner.in_transaction()
    }

    /// Handle other threads use to cancel this session's running statement
    /// (cooperative; the executor aborts with `SqlError::Cancelled`).
    pub fn cancel_handle(&self) -> flock_sql::exec::CancelHandle {
        self.inner.cancel_handle()
    }

    /// Session-local statement timeout in milliseconds (`None` = engine
    /// default); same effect as `SET statement_timeout = <ms>`.
    pub fn set_statement_timeout(&mut self, ms: Option<u64>) {
        self.inner.set_statement_timeout(ms);
    }

    /// Per-operator metrics of this session's most recent query (partial
    /// metrics of a cancelled/timed-out query included).
    pub fn last_query_metrics(&self) -> Option<flock_sql::exec::OpSnapshot> {
        self.inner.last_query_metrics()
    }

    /// Execute one statement (SQL — model DDL included — or a Flock
    /// catalog report).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let trimmed = sql.trim().trim_end_matches(';');
        let starts = |prefix: &str| {
            trimmed
                .get(..prefix.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
        };
        if starts("SHOW MODELS") {
            self.show_models()
        } else if starts("DESCRIBE MODEL") || starts("DESC MODEL") {
            self.describe_model(trimmed)
        } else {
            self.inner.execute(sql)
        }
    }

    pub fn query(&mut self, sql: &str) -> Result<RecordBatch> {
        self.execute(sql)?
            .batch
            .ok_or_else(|| SqlError::Execution("statement returned no rows".into()))
    }

    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.inner.execute_with_params(sql, params)
    }

    /// Prepare a SQL statement with `?` placeholders for repeated
    /// execution. Flock model DDL (`CREATE MODEL` etc.) is not
    /// preparable — serve it through [`execute`](Self::execute).
    pub fn prepare(&mut self, sql: &str) -> Result<flock_sql::PreparedStatement> {
        self.inner.prepare(sql)
    }

    /// Execute a prepared statement with `params` bound to its `?`
    /// placeholders, hitting the shared plan cache on the hot path.
    pub fn execute_prepared(
        &mut self,
        prepared: &flock_sql::PreparedStatement,
        params: &[Value],
    ) -> Result<QueryResult> {
        self.inner.execute_prepared(prepared, params)
    }

    /// Deploy a pipeline as a new model (version 1).
    pub fn deploy_model(
        &mut self,
        name: &str,
        pipeline: &Pipeline,
        lineage: Lineage,
    ) -> Result<()> {
        let payload =
            fonnx::to_bytes(pipeline).map_err(|e| SqlError::Execution(e.to_string()))?;
        let metadata = ModelMetadata::of(name, pipeline, lineage);
        self.inner.create_extension_object(
            MODEL_KIND,
            name,
            payload,
            metadata.to_json(),
        )
    }

    /// Deploy a new version of an existing model. Multiple updates inside
    /// one BEGIN/COMMIT apply atomically — the paper's "multiple models
    /// might have to be updated transactionally".
    pub fn update_model(
        &mut self,
        name: &str,
        pipeline: &Pipeline,
        lineage: Lineage,
    ) -> Result<u64> {
        let payload =
            fonnx::to_bytes(pipeline).map_err(|e| SqlError::Execution(e.to_string()))?;
        let metadata = ModelMetadata::of(name, pipeline, lineage);
        self.inner.update_extension_object(
            MODEL_KIND,
            name,
            payload,
            metadata.to_json(),
        )
    }

    /// Bulk-append a prepared batch (fast load path).
    pub fn append_batch(&mut self, table: &str, batch: RecordBatch) -> Result<u64> {
        self.inner.append_batch(table, batch)
    }

    /// Truncate a table's version history, refusing to drop any version a
    /// deployed model's lineage pins as its training snapshot.
    pub fn truncate_table_history(&mut self, table: &str, keep: usize) -> Result<Vec<u64>> {
        self.inner.truncate_table_history(table, keep)
    }

    /// Low-latency single-decision scoring: one prediction, in-process,
    /// no SQL round-trip. This is the serving path for the paper's
    /// "latency-sensitive decisions \[that\] are poorly served" by
    /// containerized HTTP scoring — the model lives where the application
    /// logic runs, governed by the same catalog ACLs.
    pub fn predict_one(&mut self, model: &str, inputs: &[Value]) -> Result<f64> {
        use flock_sql::udf::InferenceProvider;
        self.flock.db.with_catalog(|catalog| {
            catalog.access.check(
                self.user(),
                &flock_sql::ObjectRef::extension(model),
                flock_sql::Privilege::Execute,
            )
        })?;
        let entry = self
            .flock
            .registry
            .get(model)
            .ok_or_else(|| SqlError::Catalog(format!("model '{model}' is not deployed")))?;
        if inputs.len() != entry.pipeline.columns.len() {
            return Err(SqlError::Execution(format!(
                "model '{model}' expects {} inputs, got {}",
                entry.pipeline.columns.len(),
                inputs.len()
            )));
        }
        let mut columns = Vec::with_capacity(inputs.len());
        for (i, v) in inputs.iter().enumerate() {
            let ty = if entry.pipeline.input_is_text(i) {
                DataType::Text
            } else {
                DataType::Float
            };
            columns.push(flock_sql::ColumnVector::from_values(
                ty,
                std::slice::from_ref(v),
            )?);
        }
        let out = self.flock.provider.predict(
            model,
            &columns,
            flock_sql::ast::PredictStrategy::Auto,
            self.user(),
        )?;
        out.get(0)
            .as_f64()
            .ok_or_else(|| SqlError::Execution("model produced no score".into()))
    }

    /// Export a deployed model as a self-contained FONNX package (payload
    /// plus metadata) — the portable artifact of the paper's "train in
    /// the cloud, score everywhere: in the cloud, on-prem, and on edge
    /// devices". Requires SELECT on the model object.
    pub fn export_model(&mut self, name: &str) -> Result<ModelPackage> {
        let catalog = self.flock.db.catalog();
        catalog.access.check(
            self.user(),
            &flock_sql::ObjectRef::extension(name),
            flock_sql::Privilege::Select,
        )?;
        let obj = catalog.extension(MODEL_KIND, name)?;
        let current = obj.current();
        Ok(ModelPackage {
            name: obj.name.clone(),
            version: current.version,
            payload: current.payload.clone(),
            metadata: current.metadata.clone(),
        })
    }

    /// Import a model package (e.g. trained in a cloud instance) into this
    /// database, preserving its lineage. The inference pipeline behaves
    /// bit-identically — "packaging the entire inference pipeline in a way
    /// that preserves the exact behavior crafted in the training
    /// environment".
    pub fn import_model(&mut self, package: &ModelPackage) -> Result<()> {
        // validate the payload decodes before it enters the catalog
        fonnx::from_bytes(&package.payload)
            .map_err(|e| SqlError::Execution(format!("invalid FONNX payload: {e}")))?;
        self.inner.create_extension_object(
            MODEL_KIND,
            &package.name,
            package.payload.clone(),
            package.metadata.clone(),
        )
    }

    /// Validate a candidate pipeline against labelled data *before*
    /// deployment (the Figure-3 "Model Validation" capability; the paper:
    /// "'average model accuracy' is not a sufficient validation metric" —
    /// so the full metric set is returned for the caller's gate).
    /// Reads go through the session, so ACLs and the query log apply.
    pub fn validate_pipeline(
        &mut self,
        pipeline: &Pipeline,
        table: &str,
        label_column: &str,
    ) -> Result<BTreeMap<String, f64>> {
        let mut cols: Vec<String> =
            pipeline.columns.iter().map(|c| c.input.clone()).collect();
        cols.push(label_column.to_string());
        let batch = self
            .inner
            .query(&format!("SELECT {} FROM {table}", cols.join(", ")))?;

        let mut frame = Frame::new();
        for (i, cp) in pipeline.columns.iter().enumerate() {
            let col = batch.column(i);
            let fc = if pipeline.input_is_text(i) {
                FrameCol::Str(
                    (0..col.len())
                        .map(|r| {
                            let v = col.get(r);
                            if v.is_null() { String::new() } else { v.to_string() }
                        })
                        .collect(),
                )
            } else {
                FrameCol::F64(
                    (0..col.len())
                        .map(|r| col.get_f64(r).unwrap_or(f64::NAN))
                        .collect(),
                )
            };
            frame
                .push(cp.input.clone(), fc)
                .map_err(|e| SqlError::Execution(e.to_string()))?;
        }
        let label_col = batch.column(batch.num_columns() - 1);
        let labels: Vec<f64> = (0..label_col.len())
            .map(|r| label_col.get_f64(r).unwrap_or(f64::NAN))
            .collect();
        let scores = flock_ml::StandaloneRuntime::new()
            .score(pipeline, &frame)
            .map_err(|e| SqlError::Execution(e.to_string()))?;

        let keep: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i].is_nan()).collect();
        if keep.is_empty() {
            return Err(SqlError::Execution(
                "validation set has no labelled rows".into(),
            ));
        }
        let y: Vec<f64> = keep.iter().map(|&i| labels[i]).collect();
        let p: Vec<f64> = keep.iter().map(|&i| scores[i]).collect();
        let mut metrics = BTreeMap::new();
        if y.iter().all(|v| *v == 0.0 || *v == 1.0) {
            metrics.insert("accuracy".into(), flock_ml::metrics::accuracy(&p, &y, 0.5));
            metrics.insert("auc".into(), flock_ml::metrics::auc(&p, &y));
        } else {
            metrics.insert("rmse".into(), flock_ml::metrics::rmse(&p, &y));
            metrics.insert("r2".into(), flock_ml::metrics::r2(&p, &y));
        }
        metrics.insert("validation_rows".into(), y.len() as f64);
        Ok(metrics)
    }

    /// Deploy a new model version only if it clears a validation gate:
    /// `metric >= threshold` on the given labelled table. On failure the
    /// current version stays live and an error is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn update_model_gated(
        &mut self,
        name: &str,
        pipeline: &Pipeline,
        mut lineage: Lineage,
        validation_table: &str,
        label_column: &str,
        metric: &str,
        threshold: f64,
    ) -> Result<u64> {
        let metrics = self.validate_pipeline(pipeline, validation_table, label_column)?;
        let value = *metrics.get(metric).ok_or_else(|| {
            SqlError::Execution(format!(
                "validation did not produce metric '{metric}' (have: {:?})",
                metrics.keys().collect::<Vec<_>>()
            ))
        })?;
        if value < threshold {
            return Err(SqlError::Execution(format!(
                "validation gate failed: {metric} = {value:.4} < {threshold:.4}; \
                 current version stays live"
            )));
        }
        lineage.metrics.extend(metrics);
        self.update_model(name, pipeline, lineage)
    }

    pub fn begin(&mut self) -> Result<QueryResult> {
        self.inner.begin()
    }

    pub fn commit(&mut self) -> Result<QueryResult> {
        self.inner.commit()
    }

    pub fn rollback(&mut self) -> Result<QueryResult> {
        self.inner.rollback()
    }

    // ------------------------------------------------ catalog reports

    /// `DESCRIBE MODEL <name>` — the governance card for one model: every
    /// version with its kind, complexity, trainer, training snapshot and
    /// recorded quality metrics.
    fn describe_model(&mut self, sql: &str) -> Result<QueryResult> {
        let tokens = tokenize(sql)?;
        let name = match tokens.get(2) {
            Some(Token::Ident(s)) | Some(Token::QuotedIdent(s)) => s.to_string(),
            _ => return Err(SqlError::Parse("expected DESCRIBE MODEL <name>".into())),
        };
        let catalog = self.flock.db.catalog();
        let obj = catalog.extension(MODEL_KIND, &name)?;
        let schema = Arc::new(Schema::from_pairs(&[
            ("version", DataType::Int),
            ("kind", DataType::Text),
            ("inputs", DataType::Text),
            ("output", DataType::Text),
            ("complexity", DataType::Int),
            ("trained_by", DataType::Text),
            ("training_table", DataType::Text),
            ("table_version", DataType::Int),
            ("metrics", DataType::Text),
        ]));
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for version in &obj.versions {
            let md = ModelMetadata::from_json(&version.metadata);
            let row = match md {
                Some(m) => vec![
                    Value::Int(version.version as i64),
                    Value::Text(m.kind),
                    Value::Text(
                        m.inputs
                            .iter()
                            .map(|(n, _)| n.as_str())
                            .collect::<Vec<_>>()
                            .join(","),
                    ),
                    Value::Text(m.output),
                    Value::Int(m.complexity as i64),
                    Value::Text(m.lineage.trained_by),
                    Value::Text(m.lineage.training_table.unwrap_or_default()),
                    m.lineage
                        .training_table_version
                        .map(|v| Value::Int(v as i64))
                        .unwrap_or(Value::Null),
                    Value::Text(
                        m.lineage
                            .metrics
                            .iter()
                            .map(|(k, v)| format!("{k}={v:.4}"))
                            .collect::<Vec<_>>()
                            .join(" "),
                    ),
                ],
                None => vec![
                    Value::Int(version.version as i64),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
            };
            rows.push(row);
        }
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(QueryResult {
            rows_affected: batch.num_rows(),
            batch: Some(batch),
            message: format!("DESCRIBE MODEL {name}"),
        })
    }

    fn show_models(&mut self) -> Result<QueryResult> {
        let catalog = self.flock.db.catalog();
        let schema = Arc::new(Schema::from_pairs(&[
            ("name", DataType::Text),
            ("kind", DataType::Text),
            ("version", DataType::Int),
            ("owner", DataType::Text),
            ("inputs", DataType::Text),
            ("output", DataType::Text),
            ("complexity", DataType::Int),
            ("training_table", DataType::Text),
            ("training_table_version", DataType::Int),
        ]));
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for obj in catalog.extensions_of_kind(MODEL_KIND) {
            let md = ModelMetadata::from_json(&obj.current().metadata);
            let (kind, inputs, output, complexity, ttable, tver) = match &md {
                Some(m) => (
                    m.kind.clone(),
                    m.inputs
                        .iter()
                        .map(|(n, _)| n.as_str())
                        .collect::<Vec<_>>()
                        .join(","),
                    m.output.clone(),
                    m.complexity as i64,
                    m.lineage.training_table.clone().unwrap_or_default(),
                    m.lineage
                        .training_table_version
                        .map(|v| Value::Int(v as i64))
                        .unwrap_or(Value::Null),
                ),
                None => (String::new(), String::new(), String::new(), 0, String::new(), Value::Null),
            };
            rows.push(vec![
                Value::Text(obj.name.clone()),
                Value::Text(kind),
                Value::Int(obj.current().version as i64),
                Value::Text(obj.owner.clone()),
                Value::Text(inputs),
                Value::Text(output),
                Value::Int(complexity),
                Value::Text(ttable),
                tver,
            ]);
        }
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(QueryResult {
            rows_affected: batch.num_rows(),
            batch: Some(batch),
            message: "SHOW MODELS".into(),
        })
    }
}

/// Reconcile a scoring registry with the committed catalog: load
/// new/updated model versions, drop models that no longer exist. Run once
/// when the layers are assembled, then by the commit hook after every
/// commit that wrote a model. Models whose current payload does not decode
/// are counted in `flock_metrics` as `registry_undecodable_models`.
fn sync_registry_from(catalog: &flock_sql::Catalog, registry: &ModelRegistry) {
    let mut live: Vec<String> = Vec::new();
    let mut undecodable = 0;
    for obj in catalog.extensions_of_kind(MODEL_KIND) {
        live.push(obj.name.clone());
        let current = obj.current();
        let stale = registry
            .get(&obj.name)
            .is_none_or(|m| m.version != current.version);
        if !stale {
            continue;
        }
        let Ok(pipeline) = fonnx::from_bytes(&current.payload) else {
            // An undecodable current version is unscorable: an older
            // version must not go on scoring in its place.
            registry.remove(&obj.name);
            undecodable += 1;
            continue;
        };
        let metadata = ModelMetadata::from_json(&current.metadata)
            .unwrap_or_else(|| ModelMetadata::of(&obj.name, &pipeline, Lineage::default()));
        registry.insert(
            &obj.name,
            RegisteredModel::new(pipeline, metadata, current.version),
        );
    }
    for name in registry.names() {
        if !live.contains(&name) {
            registry.remove(&name);
        }
    }
    registry.set_undecodable(undecodable);
}

// --------------------------------------------------- in-engine training

/// Categorical NULLs get their own one-hot bucket. The sentinel starts
/// with NUL so no real string value can collide with it (SQL text can
/// never contain a NUL byte by the time it reaches a column).
const NULL_CATEGORY: &str = "\u{0}<NULL>";

/// Pick at most `cap` categories for a one-hot column: the most frequent
/// values win, ties break by name, and the final list is re-sorted by
/// name so encoders are deterministic regardless of row order.
fn select_categories(values: &[String], cap: usize) -> Vec<String> {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(v.as_str()).or_insert(0) += 1;
    }
    let mut by_freq: Vec<(&str, usize)> = counts.into_iter().collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    by_freq.truncate(cap);
    let mut cats: Vec<String> = by_freq.into_iter().map(|(v, _)| v.to_string()).collect();
    cats.sort();
    cats
}

fn opt_usize(key: &str, value: &Value) -> Result<usize> {
    match value {
        Value::Int(i) if *i > 0 => Ok(*i as usize),
        other => Err(SqlError::Plan(format!(
            "CREATE MODEL option '{key}' expects a positive integer, got {other}"
        ))),
    }
}

fn opt_u64(key: &str, value: &Value) -> Result<u64> {
    match value {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(SqlError::Plan(format!(
            "CREATE MODEL option '{key}' expects a non-negative integer, got {other}"
        ))),
    }
}

fn opt_f64(key: &str, value: &Value) -> Result<f64> {
    value.as_f64().ok_or_else(|| {
        SqlError::Plan(format!(
            "CREATE MODEL option '{key}' expects a number, got {value}"
        ))
    })
}

/// Map `CREATE MODEL ... WITH (...)` options onto fit hyperparameters
/// plus the holdout fraction. Unknown keys are hard errors — a typoed
/// hyperparameter must not silently train with defaults.
fn fit_options(spec: &TrainSpec) -> Result<(train::FitParams, f64)> {
    let mut p = train::FitParams::default();
    let mut test_fraction = 0.2_f64;
    for (key, value) in &spec.options {
        match key.as_str() {
            "trees" => p.trees = Some(opt_usize(key, value)?),
            "max_depth" => p.max_depth = opt_usize(key, value)?,
            "min_samples_split" => p.min_samples_split = opt_usize(key, value)?,
            "seed" => p.seed = opt_u64(key, value)?,
            "learning_rate" => p.learning_rate = opt_f64(key, value)?,
            "ridge" => p.ridge = opt_f64(key, value)?,
            "epochs" => p.epochs = opt_usize(key, value)?,
            "lr" => p.lr = opt_f64(key, value)?,
            "k" => p.k = opt_usize(key, value)?,
            "test_fraction" => test_fraction = opt_f64(key, value)?,
            other => {
                return Err(SqlError::Plan(format!(
                    "unknown CREATE MODEL option '{other}' (expected trees, max_depth, \
                     min_samples_split, seed, test_fraction, learning_rate, ridge, \
                     epochs, lr, or k)"
                )))
            }
        }
    }
    Ok((p, test_fraction))
}

/// The Flock training backend for `CREATE MODEL ... AS SELECT`:
/// auto-featurizes the materialized training batch (standardized
/// numerics, one-hot text), carves out a seeded holdout, fits the
/// requested kind with `flock_ml`, and records metrics measured on rows
/// the fit never saw. Deterministic for a given spec + batch — crash
/// recovery and `RETRAIN` rely on byte-identical refits.
pub struct FlockTrainer;

impl ModelTrainer for FlockTrainer {
    fn train(&self, spec: &TrainSpec, data: &RecordBatch) -> Result<TrainedArtifact> {
        let (params, test_fraction) = fit_options(spec)?;
        let schema = data.schema();
        for i in 0..schema.len() {
            for j in (i + 1)..schema.len() {
                if schema.column(i).name.eq_ignore_ascii_case(&schema.column(j).name) {
                    return Err(SqlError::Plan(format!(
                        "training query produced duplicate column '{}'; \
                         alias the columns to unique names",
                        schema.column(j).name
                    )));
                }
            }
        }
        let target_idx = (0..schema.len())
            .find(|&i| schema.column(i).name.eq_ignore_ascii_case(&spec.target))
            .ok_or_else(|| {
                SqlError::Plan(format!(
                    "unknown target column '{}' in training query result",
                    spec.target
                ))
            })?;
        let feature_indices: Vec<usize> =
            (0..schema.len()).filter(|&i| i != target_idx).collect();
        if feature_indices.is_empty() {
            return Err(SqlError::Plan("model needs at least one feature".into()));
        }

        // Rows with a usable label; the rest are ignored.
        let target_col = data.column(target_idx);
        let y: Vec<f64> = (0..target_col.len())
            .map(|r| target_col.get_f64(r).unwrap_or(f64::NAN))
            .collect();
        let keep: Vec<usize> = (0..y.len()).filter(|&i| !y[i].is_nan()).collect();
        if keep.is_empty() {
            return Err(SqlError::Execution("no training rows with a target".into()));
        }
        let y_kept: Vec<f64> = keep.iter().map(|&i| y[i]).collect();

        // Seeded holdout: recorded metrics come from rows the fit never
        // saw. A split that would leave nothing to fit on falls back to
        // fitting (and measuring) on everything.
        let (mut train_pos, mut eval_pos) =
            train::train_test_split(keep.len(), test_fraction, params.seed)
                .map_err(|e| SqlError::Plan(e.to_string()))?;
        if train_pos.is_empty() {
            train_pos = (0..keep.len()).collect();
            eval_pos = Vec::new();
        }

        // Featurizer statistics (means, stds, category sets) come from
        // the training split only — the holdout must not leak into the
        // encoders either.
        let mut frame = Frame::new();
        let mut columns: Vec<ColumnPipeline> = Vec::new();
        for &i in &feature_indices {
            let col = data.column(i);
            let name = schema.column(i).name.clone();
            match col.data_type() {
                DataType::Text => {
                    let vals: Vec<String> = keep
                        .iter()
                        .map(|&r| {
                            let v = col.get(r);
                            if v.is_null() {
                                NULL_CATEGORY.to_string()
                            } else {
                                v.to_string()
                            }
                        })
                        .collect();
                    let train_vals: Vec<String> =
                        train_pos.iter().map(|&p| vals[p].clone()).collect();
                    let cats = select_categories(&train_vals, 64);
                    frame
                        .push(name.clone(), FrameCol::Str(vals))
                        .map_err(|e| SqlError::Execution(e.to_string()))?;
                    columns.push(ColumnPipeline::one_hot(name, cats));
                }
                _ => {
                    let vals: Vec<f64> = keep
                        .iter()
                        .map(|&r| col.get_f64(r).unwrap_or(f64::NAN))
                        .collect();
                    let clean: Vec<f64> = train_pos
                        .iter()
                        .map(|&p| vals[p])
                        .filter(|v| !v.is_nan())
                        .collect();
                    let mean = if clean.is_empty() {
                        0.0
                    } else {
                        clean.iter().sum::<f64>() / clean.len() as f64
                    };
                    let std = if clean.is_empty() {
                        1.0
                    } else {
                        (clean.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
                            / clean.len() as f64)
                            .sqrt()
                    };
                    frame
                        .push(name.clone(), FrameCol::F64(vals))
                        .map_err(|e| SqlError::Execution(e.to_string()))?;
                    columns.push(
                        ColumnPipeline::numeric(name)
                            .with_step(NumericStep::Impute { fill: mean })
                            .with_step(NumericStep::Standardize {
                                mean,
                                std: if std == 0.0 { 1.0 } else { std },
                            }),
                    );
                }
            }
        }

        let draft = Pipeline::new(
            columns.clone(),
            flock_ml::Model::Linear(flock_ml::LinearModel::new(vec![], 0.0)),
            spec.output.clone(),
        );
        let full_x = draft
            .featurize(&frame)
            .map_err(|e| SqlError::Execution(e.to_string()))?;
        let slice = |pos: &[usize]| -> Matrix {
            let rows: Vec<Vec<f64>> = pos.iter().map(|&p| full_x.row(p).to_vec()).collect();
            Matrix::from_rows(&rows)
        };
        let x_train = slice(&train_pos);
        let y_train: Vec<f64> = train_pos.iter().map(|&p| y_kept[p]).collect();
        let model = train::fit_model_with(&spec.kind, &x_train, &y_train, &params)
            .map_err(|e| SqlError::Execution(e.to_string()))?;
        let pipeline = Pipeline::new(columns, model, spec.output.clone());

        // Honest metrics: measured on the holdout when there is one.
        let (m_pos, held_out) = if eval_pos.is_empty() {
            (&train_pos, false)
        } else {
            (&eval_pos, true)
        };
        let pred = pipeline.model.score_batch(&slice(m_pos));
        let y_m: Vec<f64> = m_pos.iter().map(|&p| y_kept[p]).collect();
        let is_binary = y_kept.iter().all(|v| *v == 0.0 || *v == 1.0);
        let mut metrics = BTreeMap::new();
        let scored: [(&str, f64); 2] = if is_binary {
            [
                ("accuracy", flock_ml::metrics::accuracy(&pred, &y_m, 0.5)),
                ("auc", flock_ml::metrics::auc(&pred, &y_m)),
            ]
        } else {
            [
                ("rmse", flock_ml::metrics::rmse(&pred, &y_m)),
                ("r2", flock_ml::metrics::r2(&pred, &y_m)),
            ]
        };
        for (k, v) in scored {
            metrics.insert(k.to_string(), v);
            if held_out {
                metrics.insert(format!("eval_{k}"), v);
            }
        }
        metrics.insert("train_rows".into(), train_pos.len() as f64);
        metrics.insert("eval_rows".into(), eval_pos.len() as f64);

        // Placeholder lineage: the engine stamps the training query,
        // pinned table versions, user and timestamp over it.
        let lineage = Lineage {
            metrics,
            ..Lineage::default()
        };
        let metadata = ModelMetadata::of(&spec.name, &pipeline, lineage).to_json();
        let payload =
            fonnx::to_bytes(&pipeline).map_err(|e| SqlError::Execution(e.to_string()))?;
        Ok(TrainedArtifact {
            payload,
            metadata,
            train_rows: train_pos.len(),
            eval_rows: eval_pos.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_keep_most_frequent_deterministically() {
        let mut vals: Vec<String> = Vec::new();
        for i in 0..100 {
            vals.push(format!("rare{i:03}"));
        }
        for _ in 0..50 {
            vals.push("common_a".to_string());
            vals.push("common_b".to_string());
        }
        let cats = select_categories(&vals, 64);
        assert_eq!(cats.len(), 64);
        assert!(cats.contains(&"common_a".to_string()));
        assert!(cats.contains(&"common_b".to_string()));
        // ties (every rare value appears once) break by name: the
        // lexicographically smallest rare values fill the remaining slots
        assert!(cats.contains(&"rare000".to_string()));
        assert!(cats.contains(&"rare061".to_string()));
        assert!(!cats.contains(&"rare062".to_string()));
        let mut sorted = cats.clone();
        sorted.sort();
        assert_eq!(cats, sorted, "category list must be name-sorted");
    }

    #[test]
    fn null_sentinel_cannot_collide_with_real_strings() {
        assert!(NULL_CATEGORY.starts_with('\u{0}'));
        assert_ne!(NULL_CATEGORY, "");
        let cats = select_categories(
            &[String::new(), NULL_CATEGORY.to_string()],
            64,
        );
        assert_eq!(cats.len(), 2, "empty string and NULL are distinct categories");
    }

    #[test]
    fn unknown_with_option_is_rejected() {
        let spec = TrainSpec {
            name: "m".into(),
            kind: "gbt".into(),
            options: vec![("tres".into(), Value::Int(10))],
            target: "y".into(),
            output: "o".into(),
        };
        let err = fit_options(&spec).unwrap_err();
        assert!(
            err.to_string().contains("unknown CREATE MODEL option 'tres'"),
            "{err}"
        );
    }

    #[test]
    fn with_options_map_onto_fit_params() {
        let spec = TrainSpec {
            name: "m".into(),
            kind: "gbt".into(),
            options: vec![
                ("trees".into(), Value::Int(7)),
                ("seed".into(), Value::Int(9)),
                ("test_fraction".into(), Value::Float(0.5)),
                ("learning_rate".into(), Value::Float(0.1)),
            ],
            target: "y".into(),
            output: "o".into(),
        };
        let (p, frac) = fit_options(&spec).unwrap();
        assert_eq!(p.trees, Some(7));
        assert_eq!(p.seed, 9);
        assert_eq!(p.learning_rate, 0.1);
        assert_eq!(frac, 0.5);
        // unset options keep their defaults
        assert_eq!(p.max_depth, train::FitParams::default().max_depth);
    }
}
