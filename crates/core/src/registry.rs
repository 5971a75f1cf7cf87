//! The in-memory model registry backing PREDICT evaluation.
//!
//! The *catalog* (in `flock-sql`) is the durable, versioned, access
//! controlled store of models-as-data; the registry is the engine-side
//! cache of deserialized, ready-to-score pipelines. The cross-optimizer
//! also parks *derived variants* here (pruned / compressed / per-query
//! specialized models) under internal names.

use crate::meta::ModelMetadata;
use flock_ml::{CompiledPipeline, Pipeline};
use flock_sql::sync;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A scoring-ready model.
#[derive(Debug, Clone)]
pub struct RegisteredModel {
    pub pipeline: Arc<Pipeline>,
    pub metadata: Arc<ModelMetadata>,
    /// Catalog version this entry was loaded from (0 for derived variants).
    pub version: u64,
}

/// What a derived-variant builder hands back: the rewritten pipeline plus
/// an optional human-readable annotation (shown by `EXPLAIN ANALYZE` and
/// `DESCRIBE MODEL` via the variant's `kind`).
pub struct DerivedPipeline {
    pub pipeline: Pipeline,
    pub annotation: Option<String>,
}

#[derive(Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, RegisteredModel>>,
    /// Compiled-pipeline cache: name -> (version it was compiled from,
    /// evaluation-ready artifact). Invalidated on redeploy.
    compiled: RwLock<HashMap<String, (u64, Arc<CompiledPipeline>)>>,
    cache_hits: Arc<AtomicU64>,
    cache_misses: Arc<AtomicU64>,
    cache_invalidations: Arc<AtomicU64>,
    /// Bumped whenever a *deployed* model (non-derived name) is registered
    /// or removed. The SQL plan cache samples this through
    /// [`InferenceProvider::plan_epoch`] so cached plans die on model
    /// redeploy / drop. Derived-variant registrations do NOT bump it:
    /// they happen *during* planning (epochs were already sampled), and a
    /// bump would make every fresh cache entry instantly stale.
    epoch: AtomicU64,
    /// Runs once, right after the next derived variant is registered, so a
    /// test can interleave a concurrent redeploy at that exact point.
    #[cfg(test)]
    after_derived: std::sync::Mutex<Option<DerivedHook>>,
}

#[cfg(test)]
type DerivedHook = Box<dyn FnOnce(&ModelRegistry) + Send>;

impl ModelRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn get(&self, name: &str) -> Option<RegisteredModel> {
        sync::read(&self.models).get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn insert(&self, name: &str, model: RegisteredModel) {
        let key = name.to_ascii_lowercase();
        // A (re)deploy invalidates the compiled artifacts and derived
        // variants of any previous version under this name.
        self.evict_compiled(&key);
        let derived_prefix = format!("{key}#");
        sync::write(&self.models).retain(|k, _| {
            let stale = k.starts_with(&derived_prefix);
            if stale {
                self.evict_compiled(k);
            }
            !stale
        });
        sync::write(&self.models).insert(key.clone(), model);
        if !key.contains('#') {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn remove(&self, name: &str) {
        let key = name.to_ascii_lowercase();
        let mut models = sync::write(&self.models);
        let removed = models.remove(&key).is_some();
        self.evict_compiled(&key);
        // drop derived variants of this model too
        let derived_prefix = format!("{key}#");
        models.retain(|k, _| {
            let stale = k.starts_with(&derived_prefix);
            if stale {
                self.evict_compiled(k);
            }
            !stale
        });
        if removed && !key.contains('#') {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Monotonic model-deployment epoch (see the field doc). Sampled by
    /// the SQL plan cache to invalidate plans whose `PREDICT` targets
    /// were redeployed or dropped.
    pub fn plan_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The compiled (evaluation-ready) form of a registered pipeline.
    /// Compiles and caches on miss; a cached artifact is served only while
    /// its source version is still registered.
    pub fn compiled(&self, name: &str) -> Option<Arc<CompiledPipeline>> {
        let key = name.to_ascii_lowercase();
        let model = self.get(&key)?;
        if let Some((version, artifact)) = sync::read(&self.compiled).get(&key) {
            if *version == model.version {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(artifact));
            }
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(CompiledPipeline::compile(&model.pipeline));
        sync::write(&self.compiled).insert(key, (model.version, Arc::clone(&artifact)));
        Some(artifact)
    }

    fn evict_compiled(&self, key: &str) {
        if sync::write(&self.compiled).remove(key).is_some() {
            self.cache_invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// (hits, misses, invalidations) of the compiled-pipeline cache.
    pub fn compiled_cache_counts(&self) -> (u64, u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
            self.cache_invalidations.load(Ordering::Relaxed),
        )
    }

    /// Shared counter handles, for registration into engine-wide metrics.
    pub fn cache_counters(&self) -> [(&'static str, Arc<AtomicU64>); 3] {
        [
            ("predict_compile_hits", Arc::clone(&self.cache_hits)),
            ("predict_compile_misses", Arc::clone(&self.cache_misses)),
            (
                "predict_compile_invalidations",
                Arc::clone(&self.cache_invalidations),
            ),
        ]
    }

    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = sync::read(&self.models)
            .keys()
            .filter(|k| !k.contains('#'))
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Register (or reuse) a derived variant of `base`. The variant name
    /// encodes the base version and the transformation tag, so a stale
    /// cache entry can never serve a newer base model.
    pub fn register_derived(
        &self,
        base: &str,
        tag: &str,
        build: impl FnOnce(&RegisteredModel) -> Option<DerivedPipeline>,
    ) -> Option<String> {
        let base_key = base.to_ascii_lowercase();
        let base_model = self.get(&base_key)?;
        let derived_name = format!("{base_key}#{}v{}#{tag}", base_model.version, "");
        if self.get(&derived_name).is_some() {
            return Some(derived_name);
        }
        let DerivedPipeline {
            pipeline,
            annotation,
        } = build(&base_model)?;
        let kind_suffix = annotation.unwrap_or_else(|| tag.to_string());
        let metadata = ModelMetadata {
            name: derived_name.clone(),
            inputs: pipeline
                .columns
                .iter()
                .map(|c| (c.input.clone(), c.encoder.takes_strings()))
                .collect(),
            output: pipeline.output.clone(),
            kind: format!("{}:{kind_suffix}", base_model.metadata.kind),
            complexity: pipeline.complexity(),
            lineage: base_model.metadata.lineage.clone(),
        };
        self.insert(
            &derived_name,
            RegisteredModel {
                pipeline: Arc::new(pipeline),
                metadata: Arc::new(metadata),
                version: 0,
            },
        );
        #[cfg(test)]
        {
            let hook = sync::lock(&self.after_derived).take();
            if let Some(hook) = hook {
                hook(self);
            }
        }
        Some(derived_name)
    }

    #[cfg(test)]
    pub(crate) fn after_next_derived(&self, hook: impl FnOnce(&ModelRegistry) + Send + 'static) {
        *sync::lock(&self.after_derived) = Some(Box::new(hook));
    }

    /// Number of registered entries (including derived variants).
    pub fn len(&self) -> usize {
        sync::read(&self.models).len()
    }

    pub fn is_empty(&self) -> bool {
        sync::read(&self.models).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Lineage;
    use flock_ml::{ColumnPipeline, LinearModel, Model};

    fn entry(version: u64) -> RegisteredModel {
        let pipeline = Pipeline::new(
            vec![ColumnPipeline::numeric("x")],
            Model::Linear(LinearModel::new(vec![1.0], 0.0)),
            "y",
        );
        RegisteredModel {
            metadata: Arc::new(ModelMetadata {
                name: "m".into(),
                inputs: vec![("x".into(), false)],
                output: "y".into(),
                kind: "linear".into(),
                complexity: 1,
                lineage: Lineage::default(),
            }),
            pipeline: Arc::new(pipeline),
            version,
        }
    }

    #[test]
    fn insert_get_case_insensitive() {
        let r = ModelRegistry::new();
        r.insert("Churn", entry(1));
        assert!(r.get("CHURN").is_some());
        assert_eq!(r.names(), vec!["churn".to_string()]);
    }

    #[test]
    fn derived_variants_cache_and_cascade_delete() {
        let r = ModelRegistry::new();
        r.insert("m", entry(3));
        let mut build_calls = 0;
        let name1 = r
            .register_derived("m", "pruned", |base| {
                build_calls += 1;
                Some(DerivedPipeline {
                    pipeline: (*base.pipeline).clone(),
                    annotation: None,
                })
            })
            .unwrap();
        let name2 = r
            .register_derived("m", "pruned", |base| {
                build_calls += 1;
                Some(DerivedPipeline {
                    pipeline: (*base.pipeline).clone(),
                    annotation: None,
                })
            })
            .unwrap();
        assert_eq!(name1, name2);
        assert_eq!(build_calls, 1, "second call hits cache");
        assert!(name1.contains("3"), "variant name pins base version");
        assert_eq!(r.names(), vec!["m".to_string()], "variants hidden from listing");

        r.remove("m");
        assert!(r.get(&name1).is_none(), "variants removed with base");
        assert!(r.is_empty());
    }

    #[test]
    fn derived_of_missing_base_is_none() {
        let r = ModelRegistry::new();
        assert!(r.register_derived("ghost", "t", |_| None).is_none());
    }

    #[test]
    fn derived_annotation_lands_in_kind() {
        let r = ModelRegistry::new();
        r.insert("m", entry(1));
        let name = r
            .register_derived("m", "spec1", |base| {
                Some(DerivedPipeline {
                    pipeline: (*base.pipeline).clone(),
                    annotation: Some("spec(nodes 9->3)".into()),
                })
            })
            .unwrap();
        let kind = r.get(&name).unwrap().metadata.kind.clone();
        assert_eq!(kind, "linear:spec(nodes 9->3)");
    }

    #[test]
    fn compiled_cache_hits_and_invalidates_on_redeploy() {
        let r = ModelRegistry::new();
        r.insert("m", entry(1));
        let c1 = r.compiled("m").unwrap();
        let c2 = r.compiled("M").unwrap();
        assert!(Arc::ptr_eq(&c1, &c2), "second lookup is a cache hit");
        assert_eq!(r.compiled_cache_counts(), (1, 1, 0));

        // redeploy bumps the version -> compiled artifact is evicted
        r.insert("m", entry(2));
        assert_eq!(r.compiled_cache_counts(), (1, 1, 1));
        let c3 = r.compiled("m").unwrap();
        assert!(!Arc::ptr_eq(&c1, &c3), "recompiled after invalidation");
        assert_eq!(r.compiled_cache_counts(), (1, 2, 1));

        r.remove("m");
        assert_eq!(r.compiled_cache_counts(), (1, 2, 2));
        assert!(r.compiled("m").is_none());
    }
}
