//! Aggregation: the accumulators, the grouping key, and the hash
//! aggregate operator built from them; and the typed key tables that both
//! GROUP BY and the hash join number their keys through.
//!
//! The operator groups a batch a whole column at a time. First the key
//! columns map to dense `u32` group ids through typed tables that read
//! the column buffers in place ([`group_ids`]); then each aggregate's
//! argument column folds into the accumulators of its rows' groups from
//! its typed buffer. One [`GroupKey`] is built per group, from the row
//! where the group first appears, and none per row. A dictionary-coded
//! text column is numbered through [`per_code`]: each code's string is
//! hashed once, the first time the code appears in the morsel, and later
//! rows read the code's id. [`Accumulator::fold`] is the one definition
//! of each aggregate's per-value update: the typed kernel calls it per
//! row, and so does [`Accumulator::update`], the boxed entry point of
//! DISTINCT arguments and continuous-query windows.
//!
//! A hash join's keys go through the same kind of tables ([`JoinTable`]):
//! the build side numbers its keys, the probe side looks them up. Keys
//! compare with SQL `=`: ints, dates and bools exactly, floats by
//! [`float_key`] (`-0.0` is `0.0`), text by `&str` (a dictionary column
//! once per code), and a NULL or NaN key part never matches.

use super::{
    parallel, EvalContext, OpMetrics, ParallelPolicy, PhysExpr, PhysicalPlan, PlanMetrics,
};
use crate::batch::RecordBatch;
use crate::column::{per_code, ColumnVector, RawColumn};
use crate::error::Result;
use crate::exec::cancel::CancelToken;
use crate::plan::{AggCall, AggFunc};
use crate::schema::Schema;
use crate::types::{DataType, Value, ValueRef};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

/// A grouping key: values compared with GROUP BY semantics
/// (NULL == NULL, numerics unified).
#[derive(Debug, Clone)]
pub struct GroupKey(pub Vec<Value>);

impl PartialEq for GroupKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.group_eq(b))
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            v.group_hash(state);
        }
    }
}

/// Running state for one aggregate within one group.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum: f64,
    /// Exact integer sum, maintained while every input is Int/Bool so SUM
    /// stays lossless past 2^53 (where the f64 fold starts dropping ulps).
    int_sum: i128,
    /// Welford running state for VARIANCE/STDDEV: mean and the sum of
    /// squared deviations from it (M2). Numerically stable where the
    /// textbook `Σx² / n − mean²` cancels catastrophically.
    mean: f64,
    m2: f64,
    /// Count of values folded into the Welford state (diverges from
    /// `count` only for non-numeric inputs, which variance ignores).
    welford_n: i64,
    /// Whether all summed inputs were integers (SUM preserves Int type).
    int_only: bool,
    min: Option<Value>,
    max: Option<Value>,
    /// DISTINCT filter, keyed with GROUP BY semantics ([`GroupKey`]), so
    /// `DISTINCT` unifies Int(1)/Float(1.0) and 0.0/-0.0 exactly the way
    /// grouping does.
    seen: Option<HashSet<GroupKey>>,
}

impl Accumulator {
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            int_sum: 0,
            mean: 0.0,
            m2: 0.0,
            welford_n: 0,
            int_only: true,
            min: None,
            max: None,
            seen: if distinct { Some(HashSet::new()) } else { None },
        }
    }

    /// Feed one input value. `None` means COUNT(*) (count every row).
    pub fn update(&mut self, value: Option<&Value>) {
        let Some(v) = value else {
            self.count_row();
            return;
        };
        let Some(x) = v.as_value_ref() else {
            return; // aggregates skip NULLs
        };
        if let Some(seen) = &mut self.seen {
            if !seen.insert(GroupKey(vec![v.clone()])) {
                return;
            }
        }
        self.fold(x);
    }

    /// COUNT(*): count the row whatever it holds.
    fn count_row(&mut self) {
        self.count += 1;
    }

    /// Fold one non-NULL input that passed any DISTINCT filter.
    #[inline]
    fn fold(&mut self, v: ValueRef<'_>) {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(x) = v.as_f64() {
                    self.sum += x;
                }
                match v {
                    ValueRef::Int(i) => self.int_sum += i as i128,
                    ValueRef::Bool(b) => self.int_sum += b as i128,
                    _ => self.int_only = false,
                }
            }
            AggFunc::Variance | AggFunc::StdDev => {
                if let Some(x) = v.as_f64() {
                    self.welford_n += 1;
                    let delta = x - self.mean;
                    self.mean += delta / self.welford_n as f64;
                    self.m2 += delta * (x - self.mean);
                }
            }
            AggFunc::Min => keep_if(&mut self.min, v, Ordering::Less),
            AggFunc::Max => keep_if(&mut self.max, v, Ordering::Greater),
        }
    }

    /// Whether this accumulator's state can be merged with a peer that saw
    /// a disjoint slice of the input. DISTINCT aggregates other than
    /// COUNT/MIN/MAX track only hashed keys, not values, so their partial
    /// states cannot be combined.
    pub fn mergeable(func: AggFunc, distinct: bool) -> bool {
        !distinct || matches!(func, AggFunc::Count | AggFunc::Min | AggFunc::Max)
    }

    /// Fold another accumulator (same func/distinct, fed a later slice of
    /// the input) into this one — the barrier step of two-phase parallel
    /// aggregation.
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.func, other.func);
        if let (Some(seen), Some(other_seen)) = (&mut self.seen, &other.seen) {
            // COUNT DISTINCT: count exactly the newly-seen keys.
            let mut fresh = 0i64;
            for key in other_seen {
                if seen.insert(key.clone()) {
                    fresh += 1;
                }
            }
            self.count += fresh;
        } else {
            // Chan et al. parallel variance merge — exact combination of
            // two Welford states over disjoint slices.
            if other.welford_n > 0 {
                if self.welford_n == 0 {
                    self.mean = other.mean;
                    self.m2 = other.m2;
                } else {
                    let n1 = self.welford_n as f64;
                    let n2 = other.welford_n as f64;
                    let n = n1 + n2;
                    let delta = other.mean - self.mean;
                    self.mean += delta * n2 / n;
                    self.m2 += other.m2 + delta * delta * n1 * n2 / n;
                }
                self.welford_n += other.welford_n;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.int_sum += other.int_sum;
            self.int_only &= other.int_only;
        }
        if let Some(m) = other.min.as_ref().and_then(Value::as_value_ref) {
            keep_if(&mut self.min, m, Ordering::Less);
        }
        if let Some(m) = other.max.as_ref().and_then(Value::as_value_ref) {
            keep_if(&mut self.max, m, Ordering::Greater);
        }
    }

    /// Final aggregate value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.int_only {
                    // Exact while the sum fits an i64; overflow beyond that
                    // degrades to the closest float rather than wrapping.
                    i64::try_from(self.int_sum)
                        .map(Value::Int)
                        .unwrap_or(Value::Float(self.int_sum as f64))
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else if self.int_only {
                    Value::Float(self.int_sum as f64 / self.count as f64)
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Variance | AggFunc::StdDev => {
                if self.count == 0 {
                    return Value::Null;
                }
                let var = if self.welford_n == 0 {
                    0.0
                } else {
                    (self.m2 / self.welford_n as f64).max(0.0)
                };
                Value::Float(if self.func == AggFunc::StdDev {
                    var.sqrt()
                } else {
                    var
                })
            }
        }
    }
}

/// MIN/MAX step: replace `slot` with `v` when empty or when `v` compares
/// `wanted` against it (an incomparable pair keeps the current value).
#[inline]
fn keep_if(slot: &mut Option<Value>, v: ValueRef<'_>, wanted: Ordering) {
    let better = match slot.as_ref().and_then(Value::as_value_ref) {
        None => true,
        Some(cur) => v.sql_cmp(cur) == Some(wanted),
    };
    if better {
        *slot = Some(v.to_value());
    }
}

// ------------------------------------------------------------- group ids

/// Dense group ids for the rows of a batch: `ids[row]` numbers groups in
/// order of first appearance, and `firsts[g]` is the row where group `g`
/// first appears (so `firsts` is ascending).
#[derive(Debug)]
pub(crate) struct GroupIds {
    pub ids: Vec<u32>,
    pub firsts: Vec<usize>,
}

/// Group the `rows` rows of `cols` with GROUP BY semantics: NULL is a
/// value of its own, floats compare by bit pattern with -0.0 read as 0.0
/// (so NaNs with different payloads stay apart), everything else by
/// value. Each column is numbered through a table typed by its buffer;
/// several columns combine their per-column ids pairwise. No columns put
/// every row in one group.
pub(crate) fn group_ids(
    cols: &[ColumnVector],
    rows: usize,
    cancel: &CancelToken,
) -> Result<GroupIds> {
    let Some((first, rest)) = cols.split_first() else {
        return Ok(GroupIds {
            ids: vec![0; rows],
            firsts: if rows > 0 { vec![0] } else { Vec::new() },
        });
    };
    let mut out = column_ids(first, cancel)?;
    for col in rest {
        let next = column_ids(col, cancel)?;
        out = dense(
            rows,
            |r| (out.ids[r] as u64) << 32 | next.ids[r] as u64,
            cancel,
        )?;
    }
    Ok(out)
}

/// Group ids of one column, read from its typed buffer.
fn column_ids(col: &ColumnVector, cancel: &CancelToken) -> Result<GroupIds> {
    let valid = col.validity();
    match col.raw() {
        RawColumn::Bool(v) => typed_ids(v, valid, |&b| b, cancel),
        RawColumn::Int(v) => typed_ids(v, valid, |&i| i, cancel),
        RawColumn::Float(v) => typed_ids(v, valid, |&x| float_key(x), cancel),
        RawColumn::Text(v) => typed_ids(v, valid, |s| s.as_str(), cancel),
        RawColumn::Dict { codes, values } => dict_ids(codes, values, valid, cancel),
        RawColumn::Date(v) => typed_ids(v, valid, |&d| d, cancel),
    }
}

/// Group ids of a dictionary column: a code's string is hashed the first
/// time the code appears ([`per_code`]), and later rows read the code's
/// id. Equal strings under different codes are one group, NULL rows
/// another, in order of first appearance as [`typed_ids`] would number
/// the strings.
fn dict_ids(
    codes: &[u32],
    values: &[String],
    valid: Option<&[bool]>,
    cancel: &CancelToken,
) -> Result<GroupIds> {
    cancel.check()?;
    let mut table: HashMap<Option<&str>, u32> = HashMap::new();
    let mut firsts = Vec::new();
    let ids = per_code(codes, valid, values.len(), |code, row| {
        let next = table.len() as u32;
        *table
            .entry(code.map(|c| values[c as usize].as_str()))
            .or_insert_with(|| {
                firsts.push(row);
                next
            })
    });
    Ok(GroupIds { ids, firsts })
}

/// A float's grouping identity: its bits, with -0.0 folded onto 0.0.
#[inline]
fn float_key(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// Number a typed buffer's rows by `key`, NULL rows (`valid[row]` false)
/// as one more key of their own.
fn typed_ids<'a, T, K: Hash + Eq>(
    data: &'a [T],
    valid: Option<&[bool]>,
    key: impl Fn(&'a T) -> K,
    cancel: &CancelToken,
) -> Result<GroupIds> {
    match valid {
        None => dense(data.len(), |r| key(&data[r]), cancel),
        Some(valid) => dense(data.len(), |r| valid[r].then(|| key(&data[r])), cancel),
    }
}

/// Number rows `0..rows` densely by `key`, in order of first appearance.
fn dense<K: Hash + Eq>(
    rows: usize,
    key: impl Fn(usize) -> K,
    cancel: &CancelToken,
) -> Result<GroupIds> {
    let mut firsts = Vec::new();
    let ids = insert_ids(
        &mut HashMap::new(),
        0..rows,
        |r| Some(key(r)),
        |r| firsts.push(r),
        cancel,
    )?;
    Ok(GroupIds { ids, firsts })
}

// ------------------------------------------------------------- join keys

/// A join row whose key matches nothing: a NULL or NaN key part, or on
/// the probe side, no equal build key.
const NO_KEY: u32 = u32::MAX;

/// One key column's typed table: build keys numbered densely in order of
/// first appearance.
enum KeyTable<'a> {
    Bool(HashMap<bool, u32>),
    Int(HashMap<i64, u32>),
    Date(HashMap<i32, u32>),
    /// By [`float_key`]; NaN is no key.
    Float(HashMap<u64, u32>),
    /// By `&str`; a dictionary column looks each code its rows name up once.
    Text(HashMap<&'a str, u32>),
}

/// `$body` with `$t` the typed table of `$table` and `$key` the reader of
/// row `r`'s key of that type from `$raw` (`None` when NULL or NaN).
macro_rules! with_key {
    ($table:expr, $raw:expr, $valid:expr, |$t:ident, $key:ident| $body:expr) => {{
        let valid: Option<&[bool]> = $valid;
        let ok = move |r: usize| valid.is_none_or(|v| v[r]);
        match ($table, $raw) {
            (KeyTable::Bool($t), RawColumn::Bool(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r]);
                $body
            }
            (KeyTable::Int($t), RawColumn::Int(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r]);
                $body
            }
            (KeyTable::Date($t), RawColumn::Date(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r]);
                $body
            }
            (KeyTable::Float($t), RawColumn::Float(v)) => {
                let $key = move |r: usize| (ok(r) && !v[r].is_nan()).then(|| float_key(v[r]));
                $body
            }
            (KeyTable::Text($t), RawColumn::Text(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r].as_str());
                $body
            }
            _ => unreachable!("a key table's type is its columns' type"),
        }
    }};
}

/// A hash join's build side: its rows grouped by key. Each key column has
/// a typed table; several columns number their (key so far, column id)
/// pairs through one more table each, as [`group_ids`] combines columns.
/// Probing reads the tables only, so morsels probe in parallel, and each
/// key's build rows are listed in row order whatever probes them.
pub(crate) struct JoinTable<'a> {
    columns: Vec<KeyTable<'a>>,
    tuples: Vec<HashMap<u64, u32>>,
    /// Key `k`'s build rows, ascending: `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl<'a> JoinTable<'a> {
    /// Number the build side's keys. `build[i]` must have the type of the
    /// probe side's key column `i` (see [`comparable_keys`]).
    pub(crate) fn build(build: &'a [ColumnVector], cancel: &CancelToken) -> Result<Self> {
        let n = build.first().map_or(0, ColumnVector::len);
        let mut columns = Vec::with_capacity(build.len());
        let mut tuples = Vec::new();
        let mut ids: Option<Vec<u32>> = None;
        for col in build {
            let mut table = match col.data_type() {
                DataType::Bool => KeyTable::Bool(HashMap::new()),
                DataType::Int => KeyTable::Int(HashMap::new()),
                DataType::Date => KeyTable::Date(HashMap::new()),
                DataType::Float => KeyTable::Float(HashMap::new()),
                DataType::Text => KeyTable::Text(HashMap::new()),
            };
            let next = build_ids(&mut table, col, cancel)?;
            columns.push(table);
            ids = Some(match ids {
                None => next,
                Some(prev) => {
                    let mut pairs = HashMap::new();
                    let key = |r| pair(prev[r], next[r]);
                    let ids = insert_ids(&mut pairs, 0..n, key, |_| {}, cancel)?;
                    tuples.push(pairs);
                    ids
                }
            });
        }
        let ids = ids.unwrap_or_default();
        let keys = ids
            .iter()
            .filter(|&&k| k != NO_KEY)
            .max()
            .map_or(0, |&k| k as usize + 1);
        let mut starts = vec![0usize; keys + 1];
        for &k in ids.iter().filter(|&&k| k != NO_KEY) {
            starts[k as usize + 1] += 1;
        }
        for k in 0..keys {
            starts[k + 1] += starts[k];
        }
        let mut fill = starts.clone();
        let mut rows = vec![0; starts[keys]];
        for (r, &k) in ids.iter().enumerate().filter(|(_, &k)| k != NO_KEY) {
            rows[fill[k as usize]] = r;
            fill[k as usize] += 1;
        }
        Ok(JoinTable {
            columns,
            tuples,
            starts,
            rows,
        })
    }

    /// The build key of each probe row in `range`, for [`Self::matches`].
    pub(crate) fn probe(&self, probe: &[ColumnVector], range: Range<usize>) -> Vec<u32> {
        let mut ids: Option<Vec<u32>> = None;
        for (i, (table, col)) in self.columns.iter().zip(probe).enumerate() {
            let next = probe_ids(table, col, range.clone());
            ids = Some(match ids {
                None => next,
                Some(prev) => lookup_ids(&self.tuples[i - 1], 0..next.len(), |r| {
                    pair(prev[r], next[r])
                }),
            });
        }
        ids.unwrap_or_default()
    }

    /// The build rows of key `k`, ascending; none for [`NO_KEY`] or for a
    /// key no build row holds (a dictionary value only NULL rows name).
    pub(crate) fn matches(&self, k: u32) -> &[usize] {
        match self.starts.get(k as usize..k as usize + 2) {
            Some(&[lo, hi]) => &self.rows[lo..hi],
            _ => &[],
        }
    }
}

/// Make each pair of join key columns one type, so that their keys
/// compare as SQL `=` does: a pair of different types compares through
/// the numeric view of [`Value::sql_cmp`] (an `f64`; text has none and
/// matches nothing). The planner has already cast INT/DOUBLE pairs.
pub(crate) fn comparable_keys(
    left: Vec<ColumnVector>,
    right: Vec<ColumnVector>,
) -> (Vec<ColumnVector>, Vec<ColumnVector>) {
    let numeric = |c: &ColumnVector| {
        ColumnVector::from_f64((0..c.len()).map(|r| c.get_f64(r).unwrap_or(f64::NAN)))
    };
    left.into_iter()
        .zip(right)
        .map(|(l, r)| match l.data_type() == r.data_type() {
            true => (l, r),
            false => (numeric(&l), numeric(&r)),
        })
        .unzip()
}

/// The pair of a key so far and one more column's id; `None` if either
/// matches nothing.
fn pair(prev: u32, next: u32) -> Option<u64> {
    (prev != NO_KEY && next != NO_KEY).then_some((prev as u64) << 32 | next as u64)
}

/// Number one build key column into `table`. A dictionary column
/// numbers each code it names once.
fn build_ids<'a>(
    table: &mut KeyTable<'a>,
    col: &'a ColumnVector,
    cancel: &CancelToken,
) -> Result<Vec<u32>> {
    let valid = col.validity();
    if let (KeyTable::Text(t), RawColumn::Dict { codes, values }) = (&mut *table, col.raw()) {
        cancel.check()?;
        return Ok(per_code(codes, valid, values.len(), |code, _| {
            code.map_or(NO_KEY, |c| {
                let next = t.len() as u32;
                *t.entry(values[c as usize].as_str()).or_insert(next)
            })
        }));
    }
    with_key!(table, col.raw(), valid, |t, key| insert_ids(
        t,
        0..col.len(),
        key,
        |_| {},
        cancel
    ))
}

/// Look up the keys of probe rows `range` of one key column in `table`. A
/// dictionary column looks each code the range names up once.
fn probe_ids(table: &KeyTable, col: &ColumnVector, range: Range<usize>) -> Vec<u32> {
    let valid = col.validity();
    if let (KeyTable::Text(t), RawColumn::Dict { codes, values }) = (table, col.raw()) {
        let valid = valid.map(|v| &v[range.clone()]);
        return per_code(&codes[range], valid, values.len(), |code, _| {
            code.and_then(|c| t.get(values[c as usize].as_str()).copied())
                .unwrap_or(NO_KEY)
        });
    }
    with_key!(table, col.raw(), valid, |t, key| lookup_ids(t, range, key))
}

/// Number the keys of `rows` into `table`, densely in order of first
/// appearance, calling `first(row)` for each row whose key is new; a row
/// without a key gets [`NO_KEY`].
fn insert_ids<K: Hash + Eq>(
    table: &mut HashMap<K, u32>,
    rows: Range<usize>,
    key: impl Fn(usize) -> Option<K>,
    mut first: impl FnMut(usize),
    cancel: &CancelToken,
) -> Result<Vec<u32>> {
    let mut ids = Vec::with_capacity(rows.len());
    for row in rows {
        cancel.check_every(row)?;
        let id = match key(row) {
            None => NO_KEY,
            Some(k) => {
                let next = table.len() as u32;
                *table.entry(k).or_insert_with(|| {
                    first(row);
                    next
                })
            }
        };
        ids.push(id);
    }
    Ok(ids)
}

/// The ids in `table` of the keys of `rows` ([`NO_KEY`]: none).
fn lookup_ids<K: Hash + Eq>(
    table: &HashMap<K, u32>,
    rows: Range<usize>,
    key: impl Fn(usize) -> Option<K>,
) -> Vec<u32> {
    rows.map(|r| {
        key(r)
            .and_then(|k| table.get(&k).copied())
            .unwrap_or(NO_KEY)
    })
    .collect()
}

// ------------------------------------------------------------- operator

/// Partial aggregation state over a slice of the input: groups in
/// first-appearance order, `stride` accumulators each (group-major). A
/// global aggregate (no GROUP BY) is the one group with the empty key.
struct Partial {
    keys: Vec<GroupKey>,
    accs: Vec<Accumulator>,
    stride: usize,
    /// Group of each key; built when the first later partial merges in.
    index: HashMap<GroupKey, u32>,
}

impl Partial {
    /// The state before any input: no groups, or for a global aggregate
    /// its one group, which exists even over no rows.
    fn new(group: &[PhysExpr], aggs: &[(AggCall, Option<PhysExpr>)]) -> Partial {
        let global = group.is_empty();
        Partial {
            keys: if global {
                vec![GroupKey(Vec::new())]
            } else {
                Vec::new()
            },
            accs: if global { fresh_accs(aggs) } else { Vec::new() },
            stride: aggs.len(),
            index: HashMap::new(),
        }
    }

    /// Fold in the partial of a later slice of the input (a later morsel
    /// or chunk). Merging in input order keeps group order first-appearance
    /// and partial-sum association independent of how the input was cut.
    fn merge(&mut self, later: Partial) {
        if self.index.len() != self.keys.len() {
            self.index = self.keys.iter().cloned().zip(0..).collect();
        }
        let stride = self.stride;
        let mut src = later.accs.into_iter();
        for key in later.keys {
            match self.index.get(&key) {
                Some(&g) => {
                    let dst = &mut self.accs[g as usize * stride..][..stride];
                    for (d, s) in dst.iter_mut().zip(src.by_ref().take(stride)) {
                        d.merge(&s);
                    }
                }
                None => {
                    self.index.insert(key.clone(), self.keys.len() as u32);
                    self.keys.push(key);
                    self.accs.extend(src.by_ref().take(stride));
                }
            }
        }
    }
}

fn mergeable(aggs: &[(AggCall, Option<PhysExpr>)]) -> bool {
    aggs.iter()
        .all(|(call, _)| Accumulator::mergeable(call.func, call.distinct))
}

fn fresh_accs(aggs: &[(AggCall, Option<PhysExpr>)]) -> Vec<Accumulator> {
    aggs.iter()
        .map(|(call, _)| Accumulator::new(call.func, call.distinct))
        .collect()
}

/// Run a [`PhysicalPlan::HashAggregate`]: one partial per input chunk,
/// folded in chunk order. An input other than a scan is one chunk; over a
/// scan — its parts, then its resident tail's runs — each chunk's partial
/// is built inside the chunk's own task ([`PhysicalPlan::map_chunks`]),
/// and the scan's concatenated output never materializes. Aggregates that cannot merge partials need the
/// whole input as one chunk.
pub(super) fn execute_hash_aggregate(
    input: &PhysicalPlan,
    group: &[PhysExpr],
    aggs: &[(AggCall, Option<PhysExpr>)],
    schema: &Arc<Schema>,
    policy: &ParallelPolicy,
    ctx: &EvalContext,
    m: &PlanMetrics,
) -> Result<RecordBatch> {
    let partial = |batch: RecordBatch, nested: bool| {
        m.op.rows_in
            .fetch_add(batch.num_rows() as u64, AtomicOrdering::Relaxed);
        aggregate_partial(&batch, group, aggs, policy, ctx, &m.op, nested)
    };
    let partials = match input {
        PhysicalPlan::Scan { .. } if mergeable(aggs) => {
            input.map_chunks(ctx, &m.children[0].op, partial)?
        }
        _ => vec![partial(input.execute_metered(ctx, &m.children[0])?, false)?],
    };
    let mut partials = partials.into_iter();
    let state = partials.next().map(|mut state| {
        partials.for_each(|later| state.merge(later));
        state
    });
    finish_aggregate(state, group, aggs, schema)
}

/// One input chunk's partial aggregate: two-phase over fixed morsels when
/// the policy fans out (per-morsel partials merged in morsel order, so the
/// result matches any other thread count), else one pass. `nested`: the
/// chunk is one task of a scan's chunk map, so the morsels are walked on
/// this thread.
fn aggregate_partial(
    batch: &RecordBatch,
    group: &[PhysExpr],
    aggs: &[(AggCall, Option<PhysExpr>)],
    policy: &ParallelPolicy,
    ctx: &EvalContext,
    op: &OpMetrics,
    nested: bool,
) -> Result<Partial> {
    let accumulate = |b: &RecordBatch| accumulate(b, group, aggs, ctx);
    let rows = batch.num_rows();
    let split = mergeable(aggs)
        && match nested {
            true => policy.fan_out(rows),
            false => op.fan_out(policy, rows),
        };
    if !split {
        return accumulate(batch);
    }
    let degree = if nested { 1 } else { policy.degree };
    let mut merged = Partial::new(group, aggs);
    let morsels = batch.chunks(policy.morsel_rows);
    for partial in parallel::parallel_map(&morsels, degree, accumulate)? {
        merged.merge(partial);
    }
    Ok(merged)
}

/// Phase 1 over one batch (a morsel or a whole chunk): evaluate the key
/// columns and number their groups, then fold each argument column into
/// the accumulators of its rows' groups.
fn accumulate(
    batch: &RecordBatch,
    group: &[PhysExpr],
    aggs: &[(AggCall, Option<PhysExpr>)],
    ctx: &EvalContext,
) -> Result<Partial> {
    let rows = batch.num_rows();
    let group_cols: Vec<ColumnVector> = group
        .iter()
        .map(|e| e.eval(batch, ctx))
        .collect::<Result<_>>()?;
    let GroupIds { ids, firsts } = if group.is_empty() {
        // The global group exists even over no rows.
        ctx.cancel.check()?;
        GroupIds {
            ids: vec![0; rows],
            firsts: vec![0],
        }
    } else {
        group_ids(&group_cols, rows, &ctx.cancel)?
    };
    let stride = aggs.len();
    let mut accs = Vec::with_capacity(firsts.len() * stride);
    for _ in &firsts {
        accs.extend(fresh_accs(aggs));
    }
    for (j, (call, arg)) in aggs.iter().enumerate() {
        let col = arg.as_ref().map(|e| e.eval(batch, ctx)).transpose()?;
        let slot = Slot {
            accs: &mut accs,
            stride,
            j,
        };
        match col {
            None => slot.count_rows(&ids),
            Some(col) if call.distinct => slot.update_boxed(&ids, &col),
            Some(col) => slot.fold_column(&ids, &col),
        }
    }
    let keys = firsts
        .iter()
        .map(|&r| GroupKey(group_cols.iter().map(|c| c.get(r)).collect()))
        .collect();
    Ok(Partial {
        keys,
        accs,
        stride,
        index: HashMap::new(),
    })
}

/// Accumulator `j` of every group in a group-major accumulator array.
struct Slot<'a> {
    accs: &'a mut [Accumulator],
    stride: usize,
    j: usize,
}

impl Slot<'_> {
    #[inline]
    fn of(&mut self, group: u32) -> &mut Accumulator {
        &mut self.accs[group as usize * self.stride + self.j]
    }

    /// COUNT(*): every row counts in its group.
    fn count_rows(mut self, ids: &[u32]) {
        for &g in ids {
            self.of(g).count_row();
        }
    }

    /// DISTINCT arguments go through the boxed entry point, whose filter
    /// keys values with GROUP BY semantics.
    fn update_boxed(mut self, ids: &[u32], col: &ColumnVector) {
        for (row, &g) in ids.iter().enumerate() {
            self.of(g).update(Some(&col.get(row)));
        }
    }

    /// Fold an argument column from its typed buffer, skipping NULLs.
    fn fold_column(self, ids: &[u32], col: &ColumnVector) {
        let valid = col.validity();
        match col.raw() {
            RawColumn::Bool(v) => self.fold_typed(ids, v, valid, |&b| ValueRef::Bool(b)),
            RawColumn::Int(v) => self.fold_typed(ids, v, valid, |&i| ValueRef::Int(i)),
            RawColumn::Float(v) => self.fold_typed(ids, v, valid, |&x| ValueRef::Float(x)),
            RawColumn::Text(v) => self.fold_typed(ids, v, valid, |s| ValueRef::Text(s)),
            RawColumn::Dict { codes, values } => {
                self.fold_typed(ids, codes, valid, |&c| ValueRef::Text(&values[c as usize]))
            }
            RawColumn::Date(v) => self.fold_typed(ids, v, valid, |&d| ValueRef::Date(d)),
        }
    }

    #[inline]
    fn fold_typed<'v, T>(
        mut self,
        ids: &[u32],
        data: &'v [T],
        valid: Option<&[bool]>,
        read: impl Fn(&'v T) -> ValueRef<'v>,
    ) {
        match valid {
            None => {
                for (x, &g) in data.iter().zip(ids) {
                    self.of(g).fold(read(x));
                }
            }
            Some(valid) => {
                for ((x, &g), &ok) in data.iter().zip(ids).zip(valid) {
                    if ok {
                        self.of(g).fold(read(x));
                    }
                }
            }
        }
    }
}

/// One output row per group: the key, then each aggregate's value. With
/// no input chunks at all, a global aggregate still yields its one row.
fn finish_aggregate(
    state: Option<Partial>,
    group: &[PhysExpr],
    aggs: &[(AggCall, Option<PhysExpr>)],
    schema: &Arc<Schema>,
) -> Result<RecordBatch> {
    let state = state.unwrap_or_else(|| Partial::new(group, aggs));
    let stride = state.stride;
    let rows: Vec<Vec<Value>> = state
        .keys
        .into_iter()
        .enumerate()
        .map(|(g, key)| {
            let mut row = key.0;
            row.extend(
                state.accs[g * stride..][..stride]
                    .iter()
                    .map(Accumulator::finish),
            );
            row
        })
        .collect();
    RecordBatch::from_rows(schema.clone(), &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_star_counts_nulls_via_none() {
        let mut a = Accumulator::new(AggFunc::Count, false);
        a.update(None);
        a.update(None);
        assert_eq!(a.finish(), Value::Int(2));
    }

    #[test]
    fn count_expr_skips_nulls() {
        let mut a = Accumulator::new(AggFunc::Count, false);
        a.update(Some(&Value::Int(1)));
        a.update(Some(&Value::Null));
        a.update(Some(&Value::Int(3)));
        assert_eq!(a.finish(), Value::Int(2));
    }

    #[test]
    fn sum_preserves_int_when_possible() {
        let mut a = Accumulator::new(AggFunc::Sum, false);
        a.update(Some(&Value::Int(2)));
        a.update(Some(&Value::Int(3)));
        assert_eq!(a.finish(), Value::Int(5));
        let mut b = Accumulator::new(AggFunc::Sum, false);
        b.update(Some(&Value::Int(2)));
        b.update(Some(&Value::Float(0.5)));
        assert_eq!(b.finish(), Value::Float(2.5));
    }

    #[test]
    fn empty_aggregates() {
        assert!(Accumulator::new(AggFunc::Sum, false).finish().is_null());
        assert!(Accumulator::new(AggFunc::Avg, false).finish().is_null());
        assert!(Accumulator::new(AggFunc::Min, false).finish().is_null());
        assert_eq!(
            Accumulator::new(AggFunc::Count, false).finish(),
            Value::Int(0)
        );
    }

    #[test]
    fn distinct_dedupes() {
        let mut a = Accumulator::new(AggFunc::Count, true);
        for v in [1, 2, 2, 3, 3, 3] {
            a.update(Some(&Value::Int(v)));
        }
        assert_eq!(a.finish(), Value::Int(3));
    }

    #[test]
    fn variance_and_stddev() {
        let mut v = Accumulator::new(AggFunc::Variance, false);
        let mut sd = Accumulator::new(AggFunc::StdDev, false);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            v.update(Some(&Value::Float(x)));
            sd.update(Some(&Value::Float(x)));
        }
        assert_eq!(v.finish(), Value::Float(4.0));
        assert_eq!(sd.finish(), Value::Float(2.0));
        assert!(Accumulator::new(AggFunc::StdDev, false).finish().is_null());
    }

    #[test]
    fn min_max_strings() {
        let mut a = Accumulator::new(AggFunc::Max, false);
        a.update(Some(&Value::Text("apple".into())));
        a.update(Some(&Value::Text("pear".into())));
        assert_eq!(a.finish(), Value::Text("pear".into()));
    }

    #[test]
    fn merge_matches_single_pass() {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Variance,
            AggFunc::StdDev,
        ] {
            let values: Vec<Value> = (1..=8).map(Value::Int).collect();
            let mut whole = Accumulator::new(func, false);
            for v in &values {
                whole.update(Some(v));
            }
            let mut left = Accumulator::new(func, false);
            let mut right = Accumulator::new(func, false);
            for v in &values[..3] {
                left.update(Some(v));
            }
            for v in &values[3..] {
                right.update(Some(v));
            }
            left.merge(&right);
            assert_eq!(left.finish(), whole.finish(), "{func:?}");
        }
    }

    #[test]
    fn merge_count_distinct_unions_seen() {
        let mut a = Accumulator::new(AggFunc::Count, true);
        let mut b = Accumulator::new(AggFunc::Count, true);
        for v in [1, 2, 3] {
            a.update(Some(&Value::Int(v)));
        }
        for v in [2, 3, 4, 5] {
            b.update(Some(&Value::Int(v)));
        }
        a.merge(&b);
        assert_eq!(a.finish(), Value::Int(5));
        assert!(Accumulator::mergeable(AggFunc::Count, true));
        assert!(!Accumulator::mergeable(AggFunc::Sum, true));
        assert!(Accumulator::mergeable(AggFunc::Sum, false));
    }

    #[test]
    fn distinct_key_matches_group_by_semantics() {
        // Int(1) and Float(1.0) are one distinct value, like GROUP BY;
        // same for 0.0 and -0.0.
        let mut a = Accumulator::new(AggFunc::Count, true);
        a.update(Some(&Value::Int(1)));
        a.update(Some(&Value::Float(1.0)));
        a.update(Some(&Value::Float(0.0)));
        a.update(Some(&Value::Float(-0.0)));
        assert_eq!(a.finish(), Value::Int(2));

        // merge unifies across partials under the same semantics
        let mut b = Accumulator::new(AggFunc::Count, true);
        b.update(Some(&Value::Float(1.0)));
        b.update(Some(&Value::Int(7)));
        a.merge(&b);
        assert_eq!(a.finish(), Value::Int(3));
    }

    #[test]
    fn int_sum_is_exact_beyond_f64_precision() {
        // 2^53 + 1 + 1 + 1: the f64 fold silently drops every +1.
        let big = 1i64 << 53;
        let mut a = Accumulator::new(AggFunc::Sum, false);
        a.update(Some(&Value::Int(big)));
        for _ in 0..3 {
            a.update(Some(&Value::Int(1)));
        }
        assert_eq!(a.finish(), Value::Int(big + 3));

        // ... and stays exact through a parallel merge
        let mut left = Accumulator::new(AggFunc::Sum, false);
        let mut right = Accumulator::new(AggFunc::Sum, false);
        left.update(Some(&Value::Int(big)));
        right.update(Some(&Value::Int(1)));
        left.merge(&right);
        assert_eq!(left.finish(), Value::Int(big + 1));
    }

    #[test]
    fn variance_is_stable_for_large_means() {
        // mean 1e9, true population variance 2/3: the textbook
        // sumsq/n - mean^2 formula loses every significant digit here.
        let xs = [1e9, 1e9 + 1.0, 1e9 + 2.0];
        let mut v = Accumulator::new(AggFunc::Variance, false);
        for x in xs {
            v.update(Some(&Value::Float(x)));
        }
        let Value::Float(var) = v.finish() else {
            panic!("variance must be a float")
        };
        assert!((var - 2.0 / 3.0).abs() < 1e-9, "got {var}");

        // exact parallel merge: split the same data across two partials
        let mut left = Accumulator::new(AggFunc::StdDev, false);
        let mut right = Accumulator::new(AggFunc::StdDev, false);
        left.update(Some(&Value::Float(xs[0])));
        right.update(Some(&Value::Float(xs[1])));
        right.update(Some(&Value::Float(xs[2])));
        left.merge(&right);
        let Value::Float(sd) = left.finish() else {
            panic!("stddev must be a float")
        };
        assert!((sd - (2.0f64 / 3.0).sqrt()).abs() < 1e-9, "got {sd}");
    }

    #[test]
    fn group_key_semantics() {
        use std::collections::HashMap;
        let mut m: HashMap<GroupKey, i32> = HashMap::new();
        m.insert(GroupKey(vec![Value::Null]), 1);
        *m.entry(GroupKey(vec![Value::Null])).or_insert(0) += 10;
        assert_eq!(m.len(), 1, "NULL groups together");
        m.insert(GroupKey(vec![Value::Int(1)]), 2);
        *m.entry(GroupKey(vec![Value::Float(1.0)])).or_insert(0) += 1;
        assert_eq!(m.len(), 2, "Int(1) and Float(1.0) share a group");
    }

    #[test]
    fn join_keys_match_as_sql_equality() {
        let cancel = CancelToken::default();
        let matches = |build: &ColumnVector, probe: &ColumnVector| {
            let (probe, build) = comparable_keys(vec![probe.clone()], vec![build.clone()]);
            let table = JoinTable::build(&build, &cancel).unwrap();
            let keys = table.probe(&probe, 0..probe[0].len());
            keys.iter()
                .map(|&k| table.matches(k).to_vec())
                .collect::<Vec<_>>()
        };
        let floats = |xs: &[f64]| ColumnVector::from_f64(xs.iter().copied());
        assert_eq!(
            matches(
                &floats(&[f64::NAN, 1.0, 0.0, 1.0]),
                &floats(&[f64::NAN, -0.0, 1.0])
            ),
            [vec![], vec![2], vec![1, 3]],
            "NaN matches nothing; -0.0 is 0.0; build rows in row order"
        );
        // "b" is in the build dictionary but no valid build row holds it.
        let dict = ColumnVector::from_dictionary(
            vec![0, 1, 0],
            Arc::new(vec!["a".into(), "b".into()]),
            Some(vec![true, false, true]),
        )
        .unwrap();
        let text = ColumnVector::from_values(
            crate::types::DataType::Text,
            &[
                Value::Text("b".into()),
                Value::Text("a".into()),
                Value::Null,
            ],
        )
        .unwrap();
        assert_eq!(matches(&dict, &text), [vec![], vec![0, 2], vec![]]);
        assert_eq!(matches(&text, &dict), [vec![1], vec![], vec![1]]);
        // Text against a number matches nothing; INT against DOUBLE as f64.
        let ints = ColumnVector::from_i64([1, (1 << 53) + 1]);
        assert_eq!(
            matches(&floats(&[(1u64 << 53) as f64, 1.0]), &ints),
            [vec![1], vec![0]]
        );
        let words =
            ColumnVector::from_values(crate::types::DataType::Text, &[Value::Text("1".into())])
                .unwrap();
        assert_eq!(matches(&words, &ints), [vec![], vec![]]);
    }

    fn ids_of(cols: &[ColumnVector]) -> GroupIds {
        let rows = cols.first().map_or(0, ColumnVector::len);
        group_ids(cols, rows, &CancelToken::default()).unwrap()
    }

    #[test]
    fn group_ids_follow_group_by_semantics() {
        use crate::types::DataType;
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let floats = [0.0, -0.0, nan_a, f64::NAN, nan_a, 1.5];
        let g = ids_of(&[ColumnVector::from_f64(floats)]);
        assert_eq!(
            g.ids,
            [0, 0, 1, 2, 1, 3],
            "-0.0 is 0.0; NaN payloads stay apart"
        );
        assert_eq!(g.firsts, [0, 2, 3, 5]);

        let text = ColumnVector::from_values(
            DataType::Text,
            &[
                Value::Null,
                Value::Text(String::new()),
                Value::Null,
                Value::Text("a".into()),
            ],
        )
        .unwrap();
        let g = ids_of(&[text]);
        assert_eq!(g.ids, [0, 1, 0, 2], "NULL is its own group, apart from ''");

        let ints =
            ColumnVector::from_values(DataType::Int, &[Value::Int(0), Value::Null, Value::Int(0)])
                .unwrap();
        assert_eq!(ids_of(&[ints]).ids, [0, 1, 0], "NULL is apart from 0");
    }

    #[test]
    fn multi_column_ids_are_first_appearance_tuples() {
        let a = ColumnVector::from_i64([1, 2, 1, 2, 1]);
        let b = ColumnVector::from_bool([true, true, false, true, true]);
        let g = ids_of(&[a, b]);
        assert_eq!(g.ids, [0, 1, 2, 1, 0]);
        assert_eq!(g.firsts, [0, 1, 2]);
        let none = group_ids(&[], 3, &CancelToken::default()).unwrap();
        assert_eq!((none.ids, none.firsts), (vec![0, 0, 0], vec![0]));
    }
}
