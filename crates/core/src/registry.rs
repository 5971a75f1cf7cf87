//! The in-memory model registry backing PREDICT evaluation.
//!
//! The *catalog* (in `flock-sql`) is the durable, versioned, access
//! controlled store of models-as-data; the registry is the engine-side
//! copy of ready-to-score models, each entry carrying its own compiled
//! kernel. It keeps two maps:
//!
//! * **deployed models**, one per catalog model at its current version;
//!   only a committed redeploy or drop changes them;
//! * **derived variants**, the pruned, compressed or specialised copies
//!   the cross-optimizer makes for a query, keyed by a name that encodes
//!   the deployment they derive from and the chain of rules
//!   (`m#3d#pruned#spec<hash>`: the registry's third deployment). The plan
//!   that uses a variant pins it (`Expr::Predict`'s `pin`), and a variant
//!   pins the model it was derived from, so a variant lives as long as the
//!   plans that use it. The map is a memo that lets plans share a variant:
//!   once it holds more than [`VARIANT_MEMO`] entries it drops every
//!   variant neither a plan nor a pinned variant holds. A chain is at most
//!   three variants long (pruned, compressed, specialised), so live
//!   variants are at most three per plan alive plus that constant. A
//!   redeploy or drop removes none of them: every deployment numbers its
//!   variants afresh, even one that reuses a dropped model's name and
//!   catalog version, and the plan-epoch bump replans every cached plan
//!   that pins an old one.

use crate::meta::ModelMetadata;
use flock_ml::{CompiledPipeline, Pipeline};
use flock_sql::sync;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Variants the memo keeps whether or not a plan pins them; past this it
/// drops the unpinned ones.
pub const VARIANT_MEMO: usize = 32;

/// A scoring-ready model: a deployed version, or a variant derived from one.
pub struct RegisteredModel {
    pub pipeline: Pipeline,
    pub metadata: Arc<ModelMetadata>,
    /// Catalog version of the deployed model this entry is or derives from.
    pub version: u64,
    /// The registry's count of deployments when the model this entry is
    /// or derives from was deployed; it names the entry's variants.
    deployment: u64,
    /// The model a variant was derived from; `None` for a deployed model.
    parent: Option<Arc<RegisteredModel>>,
    kernel: OnceLock<CompiledPipeline>,
}

impl RegisteredModel {
    pub fn new(pipeline: Pipeline, metadata: ModelMetadata, version: u64) -> Self {
        RegisteredModel {
            pipeline,
            metadata: Arc::new(metadata),
            version,
            deployment: 0,
            parent: None,
            kernel: OnceLock::new(),
        }
    }

    /// The deployed model at the start of a variant's chain.
    fn root(&self) -> &RegisteredModel {
        self.parent.as_deref().map_or(self, RegisteredModel::root)
    }
}

#[derive(Default)]
pub struct ModelRegistry {
    deployed: RwLock<HashMap<String, Arc<RegisteredModel>>>,
    variants: RwLock<HashMap<String, Arc<RegisteredModel>>>,
    cache_hits: Arc<AtomicU64>,
    cache_misses: Arc<AtomicU64>,
    cache_invalidations: Arc<AtomicU64>,
    /// Live derived variants: the memo's size.
    variant_count: Arc<AtomicU64>,
    /// Catalog models whose current payload this build refused to
    /// decode at the last reconcile; they do not score.
    undecodable: Arc<AtomicU64>,
    /// Models deployed so far; numbers each deployed entry.
    deployments: AtomicU64,
    /// Bumped whenever a deployed model is registered or removed. The SQL
    /// plan cache samples this through [`InferenceProvider::plan_epoch`]
    /// so cached plans die on model redeploy / drop. Deriving a variant
    /// does not bump it: that happens *during* planning, and a bump would
    /// make every fresh cache entry instantly stale.
    ///
    /// [`InferenceProvider::plan_epoch`]: flock_sql::udf::InferenceProvider::plan_epoch
    epoch: AtomicU64,
}

impl ModelRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A deployed model, or a memoised variant, by name.
    pub fn get(&self, name: &str) -> Option<Arc<RegisteredModel>> {
        let key = name.to_ascii_lowercase();
        let found = sync::read(&self.deployed).get(&key).cloned();
        found.or_else(|| sync::read(&self.variants).get(&key).cloned())
    }

    pub fn insert(&self, name: &str, mut model: RegisteredModel) {
        model.deployment = self.deployments.fetch_add(1, Ordering::Relaxed) + 1;
        let old = sync::write(&self.deployed).insert(name.to_ascii_lowercase(), Arc::new(model));
        self.retire(old);
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn remove(&self, name: &str) {
        let old = sync::write(&self.deployed).remove(&name.to_ascii_lowercase());
        if old.is_some() {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        self.retire(old);
    }

    /// Counts the kernels compiled for a replaced or dropped version, and
    /// for the variants derived from it, as invalidated.
    fn retire(&self, old: Option<Arc<RegisteredModel>>) {
        let Some(old) = old else { return };
        let variants = sync::read(&self.variants);
        let compiled = variants
            .values()
            .filter(|v| std::ptr::eq(v.root(), &*old))
            .chain([&old])
            .filter(|m| m.kernel.get().is_some())
            .count();
        self.cache_invalidations
            .fetch_add(compiled as u64, Ordering::Relaxed);
    }

    /// Monotonic model-deployment epoch (see the field doc). Sampled by
    /// the SQL plan cache to invalidate plans whose `PREDICT` targets
    /// were redeployed or dropped.
    pub fn plan_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The variant `tag` of `parent` that `build` makes from the parent's
    /// pipeline: the memoised one if there is one, else built and
    /// memoised. `build` may annotate the variant's `kind` (shown by
    /// `EXPLAIN ANALYZE`); the tag stands in when it does not.
    pub fn derive(
        &self,
        parent: &Arc<RegisteredModel>,
        tag: &str,
        build: impl FnOnce(&Pipeline) -> Option<(Pipeline, Option<String>)>,
    ) -> Option<Arc<RegisteredModel>> {
        let name = match parent.parent {
            None => format!("{}#{}d#{tag}", parent.metadata.name.to_ascii_lowercase(), parent.deployment),
            Some(_) => format!("{}#{tag}", parent.metadata.name),
        };
        if let Some(variant) = sync::read(&self.variants).get(&name) {
            return Some(Arc::clone(variant));
        }
        let (pipeline, annotation) = build(&parent.pipeline)?;
        let mut metadata = ModelMetadata::of(&name, &pipeline, parent.metadata.lineage.clone());
        metadata.kind = format!("{}:{}", parent.metadata.kind, annotation.as_deref().unwrap_or(tag));
        let variant = RegisteredModel {
            deployment: parent.deployment,
            parent: Some(Arc::clone(parent)),
            ..RegisteredModel::new(pipeline, metadata, parent.version)
        };
        let mut variants = sync::write(&self.variants);
        let variant = Arc::clone(variants.entry(name).or_insert_with(|| Arc::new(variant)));
        // A parent that only an unpinned child held goes in the next pass.
        let mut sweep = variants.len() > VARIANT_MEMO;
        while sweep {
            let before = variants.len();
            variants.retain(|_, v| Arc::strong_count(v) > 1);
            sweep = variants.len() < before;
        }
        self.variant_count
            .store(variants.len() as u64, Ordering::Relaxed);
        Some(variant)
    }

    /// `model`'s compiled kernel, compiled on first use.
    pub fn kernel<'a>(&self, model: &'a RegisteredModel) -> &'a CompiledPipeline {
        let mut compiled = false;
        let kernel = model.kernel.get_or_init(|| {
            compiled = true;
            CompiledPipeline::compile(&model.pipeline)
        });
        let counter = if compiled { &self.cache_misses } else { &self.cache_hits };
        counter.fetch_add(1, Ordering::Relaxed);
        kernel
    }

    /// (hits, misses, invalidations) of the compiled kernels.
    pub fn compiled_cache_counts(&self) -> (u64, u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
            self.cache_invalidations.load(Ordering::Relaxed),
        )
    }

    /// Shared counter handles, for registration into engine-wide metrics.
    pub fn cache_counters(&self) -> [(&'static str, Arc<AtomicU64>); 5] {
        [
            ("predict_compile_hits", Arc::clone(&self.cache_hits)),
            ("predict_compile_misses", Arc::clone(&self.cache_misses)),
            (
                "predict_compile_invalidations",
                Arc::clone(&self.cache_invalidations),
            ),
            ("predict_variants", Arc::clone(&self.variant_count)),
            ("registry_undecodable_models", Arc::clone(&self.undecodable)),
        ]
    }

    /// Record how many catalog models the last reconcile refused.
    pub fn set_undecodable(&self, models: u64) {
        self.undecodable.store(models, Ordering::Relaxed);
    }

    /// The deployed models' names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = sync::read(&self.deployed).keys().cloned().collect();
        names.sort();
        names
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
        let metadata = ModelMetadata::of("m", &pipeline, Lineage::default());
        RegisteredModel::new(pipeline, metadata, version)
    }

    fn copy(p: &Pipeline) -> Option<(Pipeline, Option<String>)> {
        Some((p.clone(), None))
    }

    #[test]
    fn insert_get_case_insensitive() {
        let r = ModelRegistry::new();
        r.insert("Churn", entry(1));
        assert!(r.get("CHURN").is_some());
        assert_eq!(r.names(), vec!["churn".to_string()]);
    }

    #[test]
    fn variants_are_memoised_and_outlive_a_redeploy_while_pinned() {
        let r = ModelRegistry::new();
        r.insert("m", entry(3));
        let base = r.get("m").unwrap();
        let pruned = r.derive(&base, "pruned", copy).unwrap();
        let again = r.derive(&base, "pruned", |_| panic!("memo hit builds nothing")).unwrap();
        assert!(Arc::ptr_eq(&pruned, &again));
        let spec = r
            .derive(&pruned, "spec1", |p| Some((p.clone(), Some("spec(nodes 9->3)".into()))))
            .unwrap();
        assert_eq!(spec.metadata.name, "m#1d#pruned#spec1", "named by deployment and chain");
        assert_eq!(spec.metadata.kind, "linear:pruned:spec(nodes 9->3)");
        assert_eq!(r.names(), vec!["m".to_string()], "variants hidden from listing");

        // A redeploy leaves a pinned variant resolvable by name.
        r.insert("m", entry(4));
        assert!(r.get("m#1d#pruned#spec1").is_some());
        assert_eq!(r.get("m").unwrap().version, 4);
    }

    #[test]
    fn a_redeploy_under_a_dropped_name_derives_afresh() {
        let r = ModelRegistry::new();
        r.insert("m", entry(1));
        let old = r.derive(&r.get("m").unwrap(), "pruned", copy).unwrap();
        // the catalog numbers a re-created model from version 1 again
        r.remove("m");
        r.insert("m", entry(1));
        let new = r.get("m").unwrap();
        let derived = r.derive(&new, "pruned", copy).unwrap();
        assert!(!Arc::ptr_eq(&derived, &old), "no memo hit across deployments");
        assert!(std::ptr::eq(derived.root(), &*new));
    }

    #[test]
    fn memo_drops_unpinned_variants_past_its_bound() {
        let r = ModelRegistry::new();
        r.insert("m", entry(1));
        let base = r.get("m").unwrap();
        let pinned = r.derive(&base, "kept", copy).unwrap();
        for i in 0..4 * VARIANT_MEMO {
            r.derive(&base, &format!("t{i}"), copy).unwrap();
            let live = r.variant_count.load(Ordering::Relaxed) as usize;
            assert!(live <= VARIANT_MEMO + 1, "{live} variants after {i}");
        }
        assert!(r.get(&pinned.metadata.name).is_some(), "a pinned variant stays");
        assert!(r.get("m#1d#t0").is_none(), "an unpinned one goes");
    }

    #[test]
    fn memo_drops_an_unpinned_chain_whole() {
        let r = ModelRegistry::new();
        r.insert("m", entry(1));
        let base = r.get("m").unwrap();
        let mut tail = r.derive(&base, "a", copy).unwrap();
        for tag in ["b", "c"] {
            tail = r.derive(&tail, tag, copy).unwrap();
        }
        assert_eq!(r.variant_count.load(Ordering::Relaxed), 3);
        drop(tail);
        for i in 0..VARIANT_MEMO {
            r.derive(&base, &format!("t{i}"), copy).unwrap();
        }
        assert!(r.get("m#1d#a").is_none(), "a parent only its unpinned child held");
        // the sweep ran on deriving t29; t30 and t31 came after it
        assert_eq!(r.variant_count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn kernels_compile_once_and_count_invalidation_on_redeploy() {
        let r = ModelRegistry::new();
        r.insert("m", entry(1));
        let m = r.get("m").unwrap();
        let variant = r.derive(&m, "v", copy).unwrap();
        assert!(std::ptr::eq(r.kernel(&m), r.kernel(&m)));
        r.kernel(&variant);
        assert_eq!(r.compiled_cache_counts(), (1, 2, 0));

        // the redeploy retires v1's kernel and its variant's
        r.insert("m", entry(2));
        assert_eq!(r.compiled_cache_counts(), (1, 2, 2));
        r.kernel(&r.get("m").unwrap());
        assert_eq!(r.compiled_cache_counts(), (1, 3, 2));

        r.remove("m");
        assert_eq!(r.compiled_cache_counts(), (1, 3, 3));
        assert!(r.get("m").is_none());
    }
}
