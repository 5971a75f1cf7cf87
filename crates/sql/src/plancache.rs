//! Prepared-statement plan cache: statement fingerprinting, cached
//! physical plans, and epoch-based invalidation.
//!
//! The serving hot path must not pay lex/parse/plan/rewrite/optimize per
//! request. A statement is **normalized** at prepare time: literal tokens
//! are replaced by `?` placeholders so statements differing only in
//! constants share one cache entry, and the extracted constants are bound
//! as parameters on every execute. The cache key is the normalized token
//! stream plus the parameter type signature (parameter types feed the
//! compiled expression types, so `?=1` and `?='x'` must not share a plan).
//!
//! Normalization keeps a literal **inline** (not parameterized) when
//! extracting it would change what the parser or planner sees:
//!
//! * the integer after `LIMIT` / `OFFSET` / `VERSION` — the parser needs a
//!   raw number there, and a time-travel version pins an immutable
//!   snapshot that never needs re-validation;
//! * a string directly after the `DATE` keyword — `DATE '...'` is a
//!   single literal production in the parser;
//! * bare numbers at the top nesting level of `ORDER BY` / `GROUP BY` —
//!   those are output ordinals, and `ORDER BY ?` (a constant) would
//!   silently stop sorting;
//! * the number `9223372036854775808` (2^63) — after a unary `-` the
//!   parser folds it into INT's minimum, which `-?` over a parameter
//!   cannot spell (2^63 itself is only a FLOAT).
//!
//! Invalidation is lazy: each entry records the DDL / options / model
//! epochs it was planned under, and a lookup whose epochs moved discards
//! the entry. Table drift is cheaper: the optimized logical plan is kept
//! alongside the physical one, so the entry is **rebound** (physical
//! re-derivation only) instead of replanned — unless a plan rewriter built
//! it on the tables' contents (a model compressed to the old column
//! ranges): that one is replanned. Drift is a table whose current
//! version is another `Arc` than the one the plan was bound to — DML,
//! offload and merge each install a new one. The bound versions hold their
//! part handles, so a plan not yet rebound still reads existing files.

use crate::error::Result;
use crate::exec::PhysicalPlan;
use crate::lexer::Token;
use crate::parser;
use crate::plan::LogicalPlan;
use crate::sync;
use crate::table::TableVersion;
use crate::types::{DataType, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bound on cached plans; a full cache evicts the least recently
/// used entry (serving workloads have a small, hot statement set that
/// one-off ad-hoc texts must not push out).
pub const CACHE_CAPACITY: usize = 128;

/// How one `?` slot of a normalized statement is filled at execute time.
#[derive(Debug, Clone)]
pub enum ParamSlot {
    /// The k-th `?` written by the user; bound from the execute-time
    /// parameter list.
    User(usize),
    /// A literal extracted by normalization; rebound to the same value on
    /// every execute.
    Inline(Value),
}

/// Result of normalizing a token stream; its tokens borrow what the
/// input's borrowed.
#[derive(Debug, Clone)]
pub struct NormalizedStatement<'a> {
    /// The normalized stream (literals replaced by `Token::Question`),
    /// ending in `Token::Eof`. This is the cache-key token part.
    pub tokens: Vec<Token<'a>>,
    /// One entry per `?` in `tokens`, in appearance order.
    pub slots: Vec<ParamSlot>,
    /// Number of `?` placeholders the user wrote (bind arity).
    pub user_params: usize,
}

/// Replace literal tokens with `?` placeholders, recording how each slot
/// is filled at execute time. See the module docs for what stays inline.
pub fn normalize<'a>(tokens: &[Token<'a>]) -> NormalizedStatement<'a> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut slots = Vec::new();
    let mut user_params = 0usize;
    let mut depth = 0usize;
    // Paren depth at which an ORDER BY / GROUP BY clause opened; bare
    // numbers at that depth may be output ordinals and stay inline.
    let mut ordinal_clause: Option<usize> = None;
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            t @ Token::LParen => {
                depth += 1;
                out.push(t.clone());
            }
            t @ Token::RParen => {
                if ordinal_clause.is_some_and(|d| depth <= d) {
                    ordinal_clause = None;
                }
                depth = depth.saturating_sub(1);
                out.push(t.clone());
            }
            t @ Token::Semicolon => {
                ordinal_clause = None;
                out.push(t.clone());
            }
            t @ Token::Ident(word) => {
                let upper = word.to_ascii_uppercase();
                match upper.as_str() {
                    "ORDER" | "GROUP"
                        if matches!(tokens.get(i + 1),
                            Some(Token::Ident(b)) if b.eq_ignore_ascii_case("BY")) =>
                    {
                        ordinal_clause = Some(depth);
                    }
                    "SELECT" | "FROM" | "WHERE" | "HAVING" | "UNION"
                        if ordinal_clause == Some(depth) =>
                    {
                        ordinal_clause = None;
                    }
                    "LIMIT" | "OFFSET" | "VERSION" => {
                        if ordinal_clause == Some(depth) {
                            ordinal_clause = None;
                        }
                        if let Some(n @ Token::Number(_)) = tokens.get(i + 1) {
                            out.push(t.clone());
                            out.push(n.clone());
                            i += 2;
                            continue;
                        }
                    }
                    "DATE" => {
                        if let Some(s @ Token::StringLit(_)) = tokens.get(i + 1) {
                            out.push(t.clone());
                            out.push(s.clone());
                            i += 2;
                            continue;
                        }
                    }
                    _ => {}
                }
                out.push(t.clone());
            }
            Token::Question => {
                slots.push(ParamSlot::User(user_params));
                user_params += 1;
                out.push(Token::Question);
            }
            t @ Token::Number(n) => {
                if ordinal_clause.is_some_and(|d| depth == d) || parser::is_int_min_magnitude(n) {
                    out.push(t.clone());
                } else {
                    let value = parser::number(n).unwrap_or(Value::Float(f64::INFINITY));
                    slots.push(ParamSlot::Inline(value));
                    out.push(Token::Question);
                }
            }
            Token::StringLit(s) => {
                slots.push(ParamSlot::Inline(Value::Text(s.to_string())));
                out.push(Token::Question);
            }
            other => out.push(other.clone()),
        }
        i += 1;
    }
    NormalizedStatement {
        tokens: out,
        slots,
        user_params,
    }
}

/// Cache key: normalized (or raw, for unprepared exact-match entries)
/// token stream plus the parameter type signature, plus any session-local
/// PREDICT strategy override (`SET predict_strategy`) — plans bake the
/// resolved strategy in, so sessions with different overrides must not
/// share entries. Its tokens own their text ([`Token::into_owned`]): a
/// key outlives the statement text it was lexed from. They sit behind an
/// `Arc`, so every execution of a prepared query keys on its one stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub tokens: Arc<[Token<'static>]>,
    pub param_types: Vec<Option<DataType>>,
    pub predict: Option<crate::ast::PredictStrategy>,
}

/// One cached plan plus everything needed to validate it per execute.
pub struct CachedPlan {
    /// Optimized logical plan with `Expr::Parameter` intact — the rebind
    /// source when table versions move.
    pub logical: Arc<LogicalPlan>,
    /// Physical plan bound to the table versions below.
    pub physical: PhysicalPlan,
    /// Tables scanned (pre-rewrite), ACL-checked on every execute.
    pub tables: Vec<String>,
    /// Models referenced (pre-rewrite), ACL-checked on every execute.
    pub models: Vec<String>,
    /// A plan rewriter built the plan on the scanned tables' contents
    /// ([`PlanRewriter::rewrite_data_bound`]): drift replans, not rebinds.
    ///
    /// [`PlanRewriter::rewrite_data_bound`]: crate::plan::PlanRewriter::rewrite_data_bound
    pub data_bound: bool,
    /// The current version of each non-pinned scanned table at bind time.
    /// Another current version means the physical plan reads stale rows
    /// or a retired part layout: rebind.
    pub bound: Vec<(String, Arc<TableVersion>)>,
    /// Committed-DDL epoch the plan was built under.
    pub ddl_epoch: u64,
    /// Exec/optimizer/provider configuration epoch.
    pub options_epoch: u64,
    /// Inference-provider (model registry) epoch.
    pub model_epoch: u64,
}

/// Why a cache lookup did not return a usable plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMiss {
    /// No entry for this key (never planned, or evicted).
    Cold,
    /// An entry existed but its epochs moved; it was discarded.
    Invalidated,
}

/// Outcome of a validated cache lookup.
pub enum CacheHit {
    /// Entry valid as-is: execute its physical plan directly.
    Ready(Arc<CachedPlan>),
    /// Epochs match but a bound table version of a plan that rests on no
    /// table's contents is no longer current: re-derive the physical plan
    /// from `logical` and re-insert.
    Rebind(Arc<CachedPlan>),
}

/// The per-database plan cache. Epoch checks happen in the engine (which
/// owns the epoch counters); this type owns storage and the counters the
/// `flock_metrics` table exports.
pub struct PlanCache {
    entries: Mutex<Entries>,
    pub hits: Arc<AtomicU64>,
    pub misses: Arc<AtomicU64>,
    pub invalidations: Arc<AtomicU64>,
    /// Live prepared-statement handles (gauge; `PreparedStatement` drops
    /// decrement it).
    pub prepared_active: Arc<AtomicU64>,
}

/// Cached plans, each stamped with the tick of its last use: a counter
/// that only the cache's lock holder advances, so the eviction victim —
/// the smallest stamp — is the same on every run of the same requests.
#[derive(Default)]
struct Entries {
    plans: HashMap<CacheKey, (Arc<CachedPlan>, u64)>,
    tick: u64,
}

impl Entries {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            entries: Mutex::new(Entries::default()),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
            invalidations: Arc::new(AtomicU64::new(0)),
            prepared_active: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl PlanCache {
    /// Validated lookup. `epochs` are the engine's current
    /// (ddl, options, model) epochs; `current` maps a table name to its
    /// current version (`None` = table gone, forces invalidation).
    pub fn lookup<'a>(
        &self,
        key: &CacheKey,
        epochs: (u64, u64, u64),
        current: impl Fn(&str) -> Option<&'a Arc<TableVersion>>,
    ) -> std::result::Result<CacheHit, CacheMiss> {
        let mut entries = sync::lock(&self.entries);
        let now = entries.next_tick();
        let Some((entry, used)) = entries.plans.get_mut(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(CacheMiss::Cold);
        };
        let (ddl, options, model) = epochs;
        if entry.ddl_epoch != ddl
            || entry.options_epoch != options
            || entry.model_epoch != model
        {
            entries.plans.remove(key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(CacheMiss::Invalidated);
        }
        let (mut stale, mut gone) = (false, false);
        for (table, bound) in &entry.bound {
            match current(table) {
                Some(v) if Arc::ptr_eq(v, bound) => {}
                Some(_) => stale = true,
                // Table vanished without a DDL epoch tick (should not
                // happen, but never serve a plan over a dropped table).
                None => gone = true,
            }
        }
        // A data-bound plan is replanned, not rebound: the cross-optimizer
        // may have compressed (and then inlined) a model to the old column
        // ranges, which the drift may have widened.
        if gone || (stale && entry.data_bound) {
            entries.plans.remove(key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(CacheMiss::Invalidated);
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        *used = now;
        let entry = entry.clone();
        Ok(if stale {
            CacheHit::Rebind(entry)
        } else {
            CacheHit::Ready(entry)
        })
    }

    /// Insert (or replace) an entry, evicting the least recently used one
    /// at capacity.
    pub fn insert(&self, key: CacheKey, plan: CachedPlan) -> Arc<CachedPlan> {
        let entry = Arc::new(plan);
        let mut entries = sync::lock(&self.entries);
        if entries.plans.len() >= CACHE_CAPACITY && !entries.plans.contains_key(&key) {
            let victim = entries
                .plans
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                entries.plans.remove(&victim);
            }
        }
        let now = entries.next_tick();
        entries.plans.insert(key, (entry.clone(), now));
        entry
    }

    /// Drop every entry (tests and explicit resets).
    pub fn clear(&self) {
        let mut entries = sync::lock(&self.entries);
        let n = entries.plans.len() as u64;
        entries.plans.clear();
        self.invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        sync::lock(&self.entries).plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        sync::lock(&self.entries).plans.is_empty()
    }

    /// Counters exported through `flock_metrics`, mirroring the
    /// `predict_compile_*` trio of the model-compilation cache.
    pub fn counters(&self) -> [(&'static str, Arc<AtomicU64>); 4] {
        [
            ("plan_cache_hits", self.hits.clone()),
            ("plan_cache_misses", self.misses.clone()),
            ("plan_cache_invalidations", self.invalidations.clone()),
            ("prepared_statements_active", self.prepared_active.clone()),
        ]
    }
}

/// Build the execute-time parameter vector for a normalized statement:
/// user-written `?` slots come from `params`, extracted literals from the
/// slot itself. The caller validates arity before calling.
pub fn bind_slots(slots: &[ParamSlot], params: &[Value]) -> Result<Vec<Value>> {
    slots
        .iter()
        .map(|s| match s {
            ParamSlot::User(k) => params.get(*k).cloned().ok_or_else(|| {
                crate::error::SqlError::Plan(format!(
                    "no value bound for parameter ?{k} ({} provided)",
                    params.len()
                ))
            }),
            ParamSlot::Inline(v) => Ok(v.clone()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn norm(sql: &str) -> NormalizedStatement<'_> {
        normalize(&tokenize(sql).unwrap())
    }

    #[test]
    fn literals_are_parameterized() {
        let a = norm("SELECT a FROM t WHERE x > 10 AND s = 'hot'");
        let b = norm("SELECT a FROM t WHERE x > 99 AND s = 'cold'");
        assert_eq!(a.tokens, b.tokens, "fingerprints must match");
        assert_eq!(a.slots.len(), 2);
        assert!(matches!(&a.slots[0], ParamSlot::Inline(Value::Int(10))));
        assert!(matches!(&a.slots[1], ParamSlot::Inline(Value::Text(s)) if s == "hot"));
        assert_eq!(a.user_params, 0);
    }

    #[test]
    fn user_placeholders_interleave_with_literals() {
        let n = norm("SELECT a FROM t WHERE x > ? AND y < 5 AND z = ?");
        assert_eq!(n.user_params, 2);
        assert!(matches!(&n.slots[0], ParamSlot::User(0)));
        assert!(matches!(&n.slots[1], ParamSlot::Inline(Value::Int(5))));
        assert!(matches!(&n.slots[2], ParamSlot::User(1)));
        let bound = bind_slots(&n.slots, &[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(bound, vec![Value::Int(1), Value::Int(5), Value::Int(2)]);
    }

    #[test]
    fn limit_offset_version_stay_inline() {
        let n = norm("SELECT a FROM t VERSION 3 WHERE x = 1 LIMIT 10 OFFSET 20");
        // only the WHERE literal becomes a parameter
        assert_eq!(n.slots.len(), 1);
        assert!(matches!(&n.slots[0], ParamSlot::Inline(Value::Int(1))));
        let a = norm("SELECT a FROM t LIMIT 10");
        let b = norm("SELECT a FROM t LIMIT 20");
        assert_ne!(a.tokens, b.tokens, "LIMIT is part of the fingerprint");
    }

    #[test]
    fn date_literals_stay_inline() {
        let n = norm("SELECT a FROM t WHERE d >= DATE '1996-01-01'");
        assert!(n.slots.is_empty());
    }

    #[test]
    fn order_and_group_by_ordinals_stay_inline() {
        let n = norm("SELECT a, b FROM t GROUP BY 1 ORDER BY 2 DESC");
        assert!(n.slots.is_empty(), "ordinals must not become parameters");
        // ...but literals nested in parens inside the clause are safe
        let n = norm("SELECT a FROM t ORDER BY ABS(x - 5)");
        assert_eq!(n.slots.len(), 1);
        // and a WHERE literal after a GROUP BY subquery scope still extracts
        let n = norm("SELECT a FROM t WHERE x IN (1, 2) ORDER BY 1");
        assert_eq!(n.slots.len(), 2);
    }

    fn key(sql: &str) -> CacheKey {
        CacheKey {
            tokens: tokenize(sql)
                .unwrap()
                .into_iter()
                .map(Token::into_owned)
                .collect(),
            param_types: vec![],
            predict: None,
        }
    }

    fn version(v: u64) -> Arc<TableVersion> {
        let schema = Arc::new(crate::schema::Schema::default());
        TableVersion::new(v, 1, Vec::new(), crate::table::Tail::empty(schema))
    }

    fn plan() -> CachedPlan {
        CachedPlan {
            logical: Arc::new(LogicalPlan::Values {
                schema: Arc::new(crate::schema::Schema::default()),
                rows: vec![],
            }),
            physical: PhysicalPlan::Values {
                schema: Arc::new(crate::schema::Schema::default()),
                rows: vec![],
            },
            tables: vec![],
            models: vec![],
            data_bound: false,
            bound: vec![],
            ddl_epoch: 1,
            options_epoch: 1,
            model_epoch: 1,
        }
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = PlanCache::default();
        let hot = key("SELECT 0");
        cache.insert(hot.clone(), plan());
        // A hot entry that keeps being used survives any number of cold
        // one-off inserts; the cold ones push each other out, oldest first.
        for i in 1..=2 * CACHE_CAPACITY {
            cache.insert(key(&format!("SELECT {i}")), plan());
            assert!(
                cache.lookup(&hot, (1, 1, 1), |_| None).is_ok(),
                "hot entry evicted after {i} cold inserts"
            );
        }
        assert_eq!(cache.len(), CACHE_CAPACITY);
        let live = |i: usize| {
            cache
                .lookup(&key(&format!("SELECT {i}")), (1, 1, 1), |_| None)
                .is_ok()
        };
        assert!(!live(CACHE_CAPACITY + 1), "the oldest cold entries went first");
        assert!(live(CACHE_CAPACITY + 2) && live(2 * CACHE_CAPACITY));
    }

    #[test]
    fn cache_invalidates_on_epoch_change() {
        let cache = PlanCache::default();
        let key = key("SELECT 1");
        let v = version(1);
        let bound = vec![("t".into(), v.clone())];
        cache.insert(key.clone(), CachedPlan { bound, ..plan() });
        // the bound version is current: hit
        assert!(matches!(
            cache.lookup(&key, (1, 1, 1), |_| Some(&v)),
            Ok(CacheHit::Ready(_))
        ));
        // another version — a new one, or the same number re-laid out: rebind
        for drifted in [version(2), version(1)] {
            assert!(matches!(
                cache.lookup(&key, (1, 1, 1), |_| Some(&drifted)),
                Ok(CacheHit::Rebind(_))
            ));
        }
        // epoch drift: invalidated and removed
        assert!(matches!(
            cache.lookup(&key, (2, 1, 1), |_| Some(&v)),
            Err(CacheMiss::Invalidated)
        ));
        assert!(matches!(
            cache.lookup(&key, (1, 1, 1), |_| Some(&v)),
            Err(CacheMiss::Cold)
        ));
        assert_eq!(cache.invalidations.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits.load(Ordering::Relaxed), 3);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn only_a_data_bound_plan_is_replanned_on_drift() {
        let cache = PlanCache::default();
        let (v, drifted) = (version(1), version(2));
        for data_bound in [false, true] {
            let key = key("SELECT PREDICT(m, x) FROM t");
            let bound = vec![("t".into(), v.clone())];
            let models = vec!["m".into()];
            let entry = CachedPlan {
                bound,
                models,
                data_bound,
                ..plan()
            };
            cache.insert(key.clone(), entry);
            assert!(matches!(
                cache.lookup(&key, (1, 1, 1), |_| Some(&v)),
                Ok(CacheHit::Ready(_))
            ));
            let hit = cache.lookup(&key, (1, 1, 1), |_| Some(&drifted));
            if data_bound {
                assert!(matches!(hit, Err(CacheMiss::Invalidated)));
                assert!(cache.is_empty());
            } else {
                assert!(matches!(hit, Ok(CacheHit::Rebind(_))));
            }
        }
    }
}
