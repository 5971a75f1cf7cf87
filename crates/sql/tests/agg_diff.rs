//! Seeded differential sweep over the grouping kernel: `HashAggregate`
//! (typed group ids, typed accumulator updates, chunk and morsel partials)
//! and `Distinct` must equal a per-row reference fold written here —
//! `Accumulator::update` over `GroupKey(row)` for every row, partials
//! merged in the same order the operator merges them — bit for bit.
//!
//! Inputs: one to three key columns of every type with NULLs, NaN with
//! two different bit patterns, ±0.0 and the empty string; argument
//! columns of every type, INT near the i64 limits; every aggregate, with
//! and without DISTINCT. Each seed runs resident, cut into random-size
//! disk parts, at one and two threads (random morsel size), and as
//! `SELECT DISTINCT` over the keys.
//!
//! Deterministic via flock-rng; seed count defaults to 256 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::ast::Expr;
use flock_sql::exec::agg::{Accumulator, GroupKey};
use flock_sql::exec::{EvalContext, ParallelPolicy, PhysExpr, PhysicalPlan};
use flock_sql::parts::PartStore;
use flock_sql::plan::{AggCall, AggFunc};
use flock_sql::table::TableScan;
use flock_sql::udf::NoInference;
use flock_sql::{ColumnVector, DataType, MemFs, RecordBatch, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Bool,
    DataType::Date,
];
const FUNCS: [AggFunc; 7] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Variance,
    AggFunc::StdDev,
];

/// One non-NULL value of `ty` from a small domain, so that groups repeat
/// and the awkward values (NaN payloads, -0.0, '', i64 limits) recur.
fn value_of(rng: &mut StdRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(match rng.gen_range(0..8u32) {
            0 => i64::MAX - rng.gen_range(0..3i64),
            1 => i64::MIN + rng.gen_range(0..3i64),
            2 => (1 << 53) + 1,
            _ => rng.gen_range(-3i64..4),
        }),
        DataType::Float => Value::Float(match rng.gen_range(0..9u32) {
            0 => f64::NAN,
            1 => f64::from_bits(0x7ff8_0000_0000_0001),
            2 => -0.0,
            3 => 0.0,
            4 => f64::INFINITY,
            _ => rng.gen_range(-3i64..4) as f64 * 0.5,
        }),
        DataType::Text => Value::Text(match rng.gen_range(0..5u32) {
            0 => String::new(),
            1 => "a longer text key".into(),
            _ => format!("c{}", rng.gen_range(0..3u32)),
        }),
        DataType::Bool => Value::Bool(rng.gen_range(0..2u32) == 0),
        DataType::Date => Value::Date(rng.gen_range(-2i32..3)),
    }
}

/// `n` rows of `ty`: no NULLs, all NULL, or about a quarter NULL.
fn column_of(rng: &mut StdRng, ty: DataType, n: usize) -> ColumnVector {
    let nulls = rng.gen_range(0..4u32);
    let values: Vec<Value> = (0..n)
        .map(|_| match nulls {
            0 => value_of(rng, ty),
            1 => Value::Null,
            _ if rng.gen_range(0..4u32) == 0 => Value::Null,
            _ => value_of(rng, ty),
        })
        .collect();
    ColumnVector::from_values(ty, &values).unwrap()
}

fn column(name: &str) -> Expr {
    Expr::Column {
        qualifier: None,
        name: name.into(),
    }
}

/// A generated table: key columns `k*` and argument columns `a*`.
struct Case {
    batch: RecordBatch,
    keys: Vec<usize>,
    /// Each aggregate and the argument column it reads (`None` = `*`).
    aggs: Vec<(AggCall, Option<usize>)>,
}

impl Case {
    fn generate(rng: &mut StdRng) -> Case {
        let n = rng.gen_range(0..300usize);
        let nkeys = rng.gen_range(1..=3usize);
        let mut pairs: Vec<(String, DataType)> = Vec::new();
        let mut cols = Vec::new();
        for i in 0..nkeys + 3 {
            let ty = TYPES[rng.gen_range(0..TYPES.len())];
            let name = if i < nkeys {
                format!("k{i}")
            } else {
                format!("a{}", i - nkeys)
            };
            cols.push(column_of(rng, ty, n));
            pairs.push((name, ty));
        }
        // Always one INT argument, so SUM/AVG meet the i64 limits.
        pairs.push(("a_int".into(), DataType::Int));
        cols.push(column_of(rng, DataType::Int, n));
        let names: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let batch = RecordBatch::new(Arc::new(Schema::from_pairs(&names)), cols).unwrap();
        let args: Vec<usize> = (nkeys..batch.num_columns()).collect();
        let mut aggs = vec![(
            AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            None,
        )];
        for func in FUNCS {
            for distinct in [false, true] {
                let a = args[rng.gen_range(0..args.len())];
                let call = AggCall {
                    func,
                    arg: Some(column(&batch.schema().columns()[a].name)),
                    distinct,
                };
                aggs.push((call, Some(a)));
            }
        }
        Case {
            batch,
            keys: (0..nkeys).collect(),
            aggs,
        }
    }

    /// The aggregates whose partials merge (the operator then folds chunk
    /// by chunk), or all of them (it then folds the whole input at once).
    fn select(&self, mergeable_only: bool) -> Vec<(AggCall, Option<usize>)> {
        self.aggs
            .iter()
            .filter(|(c, _)| !mergeable_only || Accumulator::mergeable(c.func, c.distinct))
            .cloned()
            .collect()
    }

    /// Output schema, typed the way the planner types aggregates.
    fn output_schema(&self, group: &[usize], aggs: &[(AggCall, Option<usize>)]) -> Arc<Schema> {
        let schema = self.batch.schema();
        let mut pairs: Vec<(String, DataType)> = group
            .iter()
            .map(|&k| {
                (
                    schema.columns()[k].name.clone(),
                    schema.columns()[k].data_type,
                )
            })
            .collect();
        for (i, (call, arg)) in aggs.iter().enumerate() {
            let ty = match (call.func, arg) {
                (AggFunc::Count, _) => DataType::Int,
                (AggFunc::Avg | AggFunc::Variance | AggFunc::StdDev, _) => DataType::Float,
                (_, Some(a)) => schema.columns()[*a].data_type,
                (_, None) => DataType::Float,
            };
            pairs.push((format!("agg{i}"), ty));
        }
        let names: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Arc::new(Schema::from_pairs(&names))
    }
}

/// The table as a chunk source: cut at `cuts` into pieces, every piece but
/// the last written as a disk part, the last kept as the resident tail.
fn table_scan(batch: &RecordBatch, cuts: &[usize]) -> TableScan {
    let store = Arc::new(PartStore::open(MemFs::new()).unwrap());
    let mut bounds = vec![0];
    bounds.extend_from_slice(cuts);
    bounds.push(batch.num_rows());
    let pieces: Vec<RecordBatch> = bounds
        .windows(2)
        .map(|w| batch.slice(w[0], w[1] - w[0]))
        .collect();
    let (tail, parts) = pieces.split_last().unwrap();
    let parts: Vec<_> = parts
        .iter()
        .map(|p| store.write_part(p, 0).unwrap())
        .collect();
    TableScan::new(&parts, tail, Some(&store))
}

fn compile(e: &Expr, schema: &Schema) -> PhysExpr {
    PhysExpr::compile(e, schema, &NoInference).unwrap()
}

/// Values rendered for comparison: floats to the bit (`Value`'s own `==`
/// has SQL semantics, NULL and NaN equal nothing).
fn show(batch: &RecordBatch) -> Vec<String> {
    (0..batch.num_rows())
        .map(|i| {
            let row: Vec<String> = batch
                .row(i)
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("Float({:#x})", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect();
            row.join(", ")
        })
        .collect()
}

fn shown(r: flock_sql::Result<RecordBatch>) -> Result<Vec<String>, String> {
    r.as_ref().map(show).map_err(|e| e.to_string())
}

// ----------------------------------------------------------- reference

/// Reference partial: groups in first-appearance order.
struct RefPartial {
    order: Vec<GroupKey>,
    groups: HashMap<GroupKey, Vec<Accumulator>>,
}

fn fresh(aggs: &[(AggCall, Option<usize>)]) -> Vec<Accumulator> {
    aggs.iter()
        .map(|(c, _)| Accumulator::new(c.func, c.distinct))
        .collect()
}

impl RefPartial {
    fn new(global: bool, aggs: &[(AggCall, Option<usize>)]) -> RefPartial {
        let mut p = RefPartial {
            order: Vec::new(),
            groups: HashMap::new(),
        };
        if global {
            p.order.push(GroupKey(Vec::new()));
            p.groups.insert(GroupKey(Vec::new()), fresh(aggs));
        }
        p
    }

    /// Row by row: the key of the row, then `update` with its value.
    fn fold(batch: &RecordBatch, keys: &[usize], aggs: &[(AggCall, Option<usize>)]) -> RefPartial {
        let mut p = RefPartial::new(keys.is_empty(), aggs);
        let key_batch = batch.project(keys).unwrap();
        for row in 0..batch.num_rows() {
            let key = GroupKey(key_batch.row(row));
            let accs = p.groups.entry(key.clone()).or_insert_with(|| {
                p.order.push(key);
                fresh(aggs)
            });
            for (acc, (_, arg)) in accs.iter_mut().zip(aggs) {
                let value = arg.map(|a| batch.column(a).get(row));
                acc.update(value.as_ref());
            }
        }
        p
    }

    fn merge(&mut self, later: RefPartial) {
        let RefPartial { order, mut groups } = later;
        for key in order {
            let accs = groups.remove(&key).unwrap();
            match self.groups.get_mut(&key) {
                Some(mine) => mine.iter_mut().zip(&accs).for_each(|(m, a)| m.merge(a)),
                None => {
                    self.order.push(key.clone());
                    self.groups.insert(key, accs);
                }
            }
        }
    }

    fn finish(self, schema: &Arc<Schema>) -> flock_sql::Result<RecordBatch> {
        let rows: Vec<Vec<Value>> = self
            .order
            .iter()
            .map(|key| {
                let mut row = key.0.clone();
                row.extend(self.groups[key].iter().map(Accumulator::finish));
                row
            })
            .collect();
        RecordBatch::from_rows(schema.clone(), &rows)
    }
}

/// What the operator computes, spelled out: one partial per non-empty
/// chunk (per morsel when the policy fans out, merged in morsel order),
/// merged in chunk order — or one fold over everything when some
/// aggregate cannot merge.
fn reference(
    chunks: &[RecordBatch],
    keys: &[usize],
    aggs: &[(AggCall, Option<usize>)],
    policy: &ParallelPolicy,
    schema: &Arc<Schema>,
) -> flock_sql::Result<RecordBatch> {
    let global = keys.is_empty();
    let mergeable = aggs
        .iter()
        .all(|(c, _)| Accumulator::mergeable(c.func, c.distinct));
    let chunks: Vec<&RecordBatch> = chunks.iter().filter(|c| c.num_rows() > 0).collect();
    if !mergeable {
        let whole = match chunks.as_slice() {
            [] => RecordBatch::empty(schema.clone()),
            _ => {
                let owned: Vec<RecordBatch> = chunks.iter().map(|c| (*c).clone()).collect();
                RecordBatch::concat(owned[0].schema().clone(), &owned)?
            }
        };
        return RefPartial::fold(&whole, keys, aggs).finish(schema);
    }
    let mut state: Option<RefPartial> = None;
    for chunk in chunks {
        let partial = if policy.fan_out(chunk.num_rows()) {
            let mut merged = RefPartial::new(global, aggs);
            for morsel in chunk.chunks(policy.morsel_rows) {
                merged.merge(RefPartial::fold(&morsel, keys, aggs));
            }
            merged
        } else {
            RefPartial::fold(chunk, keys, aggs)
        };
        match &mut state {
            Some(s) => s.merge(partial),
            None => state = Some(partial),
        }
    }
    state
        .unwrap_or_else(|| RefPartial::new(global, aggs))
        .finish(schema)
}

// ----------------------------------------------------------- the sweep

#[test]
fn grouping_kernel_matches_the_row_reference() {
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA66);
        let case = Case::generate(&mut rng);
        let n = case.batch.num_rows();
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..6usize))
            .map(|_| rng.gen_range(0..=n))
            .collect();
        cuts.sort_unstable();
        let two_threads = ParallelPolicy {
            degree: 2,
            row_threshold: rng.gen_range(1..=n.max(1)),
            morsel_rows: rng.gen_range(1..64usize),
        };
        let settings = [
            ("resident", vec![], ParallelPolicy::serial()),
            ("parts", cuts.clone(), ParallelPolicy::serial()),
            ("parts, 2 threads", cuts, two_threads),
        ];
        for (setting, cuts, policy) in settings {
            let source = table_scan(&case.batch, &cuts);
            let chunks: Vec<RecordBatch> = source.chunks().map(Result::unwrap).collect();
            let ectx = EvalContext::new(Arc::new(NoInference), "admin", policy.degree);
            for group in [case.keys.clone(), Vec::new()] {
                for mergeable_only in [true, false] {
                    let aggs = case.select(mergeable_only);
                    let schema = case.output_schema(&group, &aggs);
                    let input_schema = case.batch.schema();
                    let plan = PhysicalPlan::HashAggregate {
                        input: Box::new(PhysicalPlan::Scan {
                            source: source.clone(),
                            predicate: None,
                            policy,
                        }),
                        group: group
                            .iter()
                            .map(|&k| {
                                compile(&column(&input_schema.columns()[k].name), input_schema)
                            })
                            .collect(),
                        aggs: aggs
                            .iter()
                            .map(|(c, _)| {
                                (c.clone(), c.arg.as_ref().map(|e| compile(e, input_schema)))
                            })
                            .collect(),
                        schema: schema.clone(),
                        policy,
                    };
                    let ctx = format!(
                        "seed {seed} {setting}: GROUP BY {group:?} over {} rows, cuts {cuts:?}, \
                         {policy:?}, mergeable only {mergeable_only}",
                        n
                    );
                    assert_eq!(
                        shown(plan.execute(&ectx)),
                        shown(reference(&chunks, &group, &aggs, &policy, &schema)),
                        "{ctx}"
                    );
                }
            }
        }

        // SELECT DISTINCT over the keys: the first row of each key.
        let keys = case.batch.project(&case.keys).unwrap();
        let plan = PhysicalPlan::Distinct {
            input: Box::new(PhysicalPlan::Scan {
                source: table_scan(&keys, &[]),
                predicate: None,
                policy: ParallelPolicy::serial(),
            }),
        };
        let mut seen = std::collections::HashSet::new();
        let firsts: Vec<usize> = (0..n)
            .filter(|&i| seen.insert(GroupKey(keys.row(i))))
            .collect();
        let ectx = EvalContext::new(Arc::new(NoInference), "admin", 1);
        assert_eq!(
            shown(plan.execute(&ectx)),
            shown(keys.take(&firsts)),
            "seed {seed}: DISTINCT over {n} rows"
        );
    }
}
