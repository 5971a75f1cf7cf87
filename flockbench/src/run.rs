//! One run: build the workload from the seed, repeat episodes until
//! `--seconds` of timed phase has been measured, aggregate, print.

use crate::layers::Layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{self, ratio, Ctx, Episode, Scale, Workload};
use crate::{env, trace};
use serde_json::{json, Map, Value as Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Timed-phase seconds a run measures when `--seconds` is not given; the
/// same as `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up is repeated at least this often so `setup_s` is a median.
const MIN_EPISODES: usize = 3;
/// Untraced/traced episode pairs in a `--trace` run.
const TRACE_PAIRS: usize = 2;

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// What a run hands back: the one-line result and where the full record
/// went.
pub struct RunOutput {
    /// `{"correct", "attempted", "failed", "metrics"}` — the contract's
    /// last line of standard output.
    pub line: Json,
    pub record_path: PathBuf,
}

/// Default output directory: inside the build directory, which the
/// repository's `.gitignore` already covers.
pub fn default_out() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("flockbench")
}

struct Episodes<'a> {
    workload: &'a dyn Workload,
    scratch: PathBuf,
    next: usize,
}

impl Episodes<'_> {
    /// Runs one episode in a fresh directory and removes it afterwards.
    fn run(&mut self, tracer: Option<Arc<Tracer>>) -> Episode {
        self.in_fresh_dir(tracer, |w, ctx| w.episode(ctx))
    }

    fn in_fresh_dir<T>(
        &mut self,
        tracer: Option<Arc<Tracer>>,
        f: impl FnOnce(&dyn Workload, &Ctx) -> T,
    ) -> T {
        let dir = self.scratch.join(format!("episode-{}", self.next));
        self.next += 1;
        std::fs::create_dir_all(&dir).expect("scratch directory can be created");
        let out = f(
            self.workload,
            &Ctx {
                dir: dir.clone(),
                tracer,
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
        out
    }
}

fn ops_per_s(episodes: &[Episode]) -> Vec<f64> {
    episodes
        .iter()
        .map(|e| ratio(e.lat.len() as f64, e.timed_s))
        .collect()
}

/// The `p`-th percentile of each operation kind over `episodes`, averaged
/// by each kind's share of the operations, in microseconds.
///
/// A mix holds kinds that differ tenfold in cost. A percentile pooled over
/// all of them falls in the gap between two kinds' clusters, where a
/// small shift of either moves it a long way; a percentile within one
/// kind sits inside that kind's own distribution.
fn mix_percentile_us(episodes: &[Episode], p: f64) -> f64 {
    let mut by_kind: BTreeMap<u8, Vec<u64>> = BTreeMap::new();
    for s in episodes.iter().flat_map(|e| &e.lat) {
        by_kind.entry(s.kind).or_default().push(s.ns);
    }
    let total: usize = by_kind.values().map(Vec::len).sum();
    by_kind
        .values_mut()
        .map(|ns| {
            ns.sort_unstable();
            let value = percentile(ns, p).map_or(0.0, |x| x.value as f64 / 1e3);
            value * ns.len() as f64 / total.max(1) as f64
        })
        .sum()
}

/// Per-episode values of each end-to-end metric (`peak_rss_mb` is a
/// property of the process and has one reading). `diff` takes the spread
/// of a metric from these.
fn end_to_end_samples(episodes: &[Episode]) -> BTreeMap<&'static str, Vec<f64>> {
    let each = |f: &dyn Fn(&Episode) -> f64| episodes.iter().map(f).collect::<Vec<f64>>();
    BTreeMap::from([
        ("setup_s", each(&|e| e.setup_s)),
        ("ops_per_s", ops_per_s(episodes)),
        ("rows_per_s", each(&|e| ratio(e.rows as f64, e.timed_s))),
        (
            "lat_p50_us",
            each(&|e| mix_percentile_us(std::slice::from_ref(e), 50.0)),
        ),
        ("peak_rss_mb", vec![env::peak_rss_mb()]),
    ])
}

/// The value reported for each end-to-end metric: medians over episodes,
/// except the latency percentile, which pools every episode's samples of
/// a kind so that it rests on as many samples as the run has.
fn end_to_end_values(
    episodes: &[Episode],
    samples: &BTreeMap<&'static str, Vec<f64>>,
) -> BTreeMap<&'static str, f64> {
    let mut values: BTreeMap<&'static str, f64> =
        samples.iter().map(|(k, v)| (*k, median(v))).collect();
    values.insert("lat_p50_us", mix_percentile_us(episodes, 50.0));
    values
}

/// The client-side figures kept on the per-layer list and the checkpoint
/// stall, from the untraced episodes.
fn client_metrics(episodes: &[Episode], layers: &mut Layers) {
    layers.set("client.lat_p95_us", mix_percentile_us(episodes, 95.0));
    layers.set("client.lat_p99_us", mix_percentile_us(episodes, 99.0));
    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    layers.set("client.fail_ratio", ratio(failed as f64, attempted as f64));
    let recover: Vec<f64> = episodes.iter().filter_map(|e| e.recover_s).collect();
    layers.set("client.recover_s", median(&recover));
    let amp: Vec<f64> = episodes
        .iter()
        .filter(|e| e.user_bytes > 0)
        .map(|e| e.dir_bytes as f64 / e.user_bytes as f64)
        .collect();
    layers.set("client.space_amp", median(&amp));
    let stalls: Vec<f64> = episodes.iter().map(|e| e.checkpoint_stall_us).collect();
    layers.set("checkpoint.stall_max_us", median(&stalls));
}

/// Each kind's latency percentiles over the whole run, with the sample
/// counts behind them.
fn percentile_report(kinds: &[&str], episodes: &[Episode]) -> Json {
    let mut out = Map::new();
    for (k, name) in kinds.iter().enumerate() {
        let mut ns: Vec<u64> = episodes
            .iter()
            .flat_map(|e| &e.lat)
            .filter(|s| usize::from(s.kind) == k)
            .map(|s| s.ns)
            .collect();
        ns.sort_unstable();
        let mut kind = Map::new();
        for (label, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            if let Some(x) = percentile(&ns, p) {
                kind.insert(label.to_string(), json!({
                    "value_us": x.value as f64 / 1e3, "samples": x.samples, "samples_beyond": x.beyond,
                }));
            }
        }
        out.insert((*name).to_string(), Json::Object(kind));
    }
    Json::Object(out)
}

fn metric_map(values: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Json {
    Json::Object(
        values
            .map(|(name, unit, value)| (name.to_string(), json!({"value": value, "unit": unit})))
            .collect(),
    )
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).expect("documents print");
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

/// What either kind of run returns.
struct Measured {
    /// The untraced episodes: what the record's statistics are taken over.
    episodes: Vec<Episode>,
    /// The traced ones; a wrong result there fails the run like any other.
    traced: Vec<Episode>,
    record_name: String,
    /// The metrics of the result line.
    metrics: Json,
}

/// Episodes until `seconds` of timed phase (and at least `MIN_EPISODES`);
/// the end-to-end metrics.
fn untraced_run(seconds: f64, episodes: &mut Episodes, doc: &mut Map<String, Json>) -> Measured {
    let mut done = Vec::new();
    let mut measured = 0.0;
    while done.len() < MIN_EPISODES || measured < seconds {
        let ep = episodes.run(None);
        measured += ep.timed_s;
        done.push(ep);
    }
    let samples = end_to_end_samples(&done);
    let values = end_to_end_values(&done, &samples);
    let metrics = metric_map(END_TO_END.iter().map(|m| (m.name, m.unit, values[m.name])));
    doc.insert(
        "samples".into(),
        Json::Object(
            samples
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::from(v.clone())))
                .collect(),
        ),
    );
    let mut layers = Layers::default();
    client_metrics(&done, &mut layers);
    for (name, value) in &done[0].counters {
        layers.set(name, *value);
    }
    doc.insert(
        "client_and_counters".into(),
        Json::Object(
            layers
                .iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        ),
    );
    Measured {
        episodes: done,
        traced: Vec::new(),
        record_name: format!("{}.json", episodes.workload.name()),
        metrics,
    }
}

/// Untraced and traced episodes in alternation, then the layer replay;
/// the per-layer metrics. Writes the trace file.
fn traced_run(
    args: &RunArgs,
    episodes: &mut Episodes,
    doc: &mut Map<String, Json>,
) -> Result<Measured, String> {
    let workload = episodes.workload.name();
    let tracer = Arc::new(Tracer::new());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..if args.smoke { 1 } else { TRACE_PAIRS } {
        plain.push(episodes.run(None));
        traced.push(episodes.run(Some(tracer.clone())));
    }
    let mut layers = Layers::default();
    episodes.in_fresh_dir(Some(tracer.clone()), |w, ctx| w.layers(ctx, &mut layers));
    for (name, value) in &plain[0].counters {
        layers.set(name, *value);
    }
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ep in &traced {
        for (name, values) in &ep.layer_samples {
            samples.entry(name).or_default().extend(values);
        }
    }
    for (name, values) in samples {
        layers.set(name, median(&values));
    }
    client_metrics(&plain, &mut layers);
    let traced_rates = ops_per_s(&traced);
    layers.set(
        "trace.overhead_ratio",
        ratio(median(&traced_rates), median(&ops_per_s(&plain))),
    );

    let spans = tracer.snapshot();
    write_json(
        &args.out.join(format!("trace_{workload}.json")),
        &trace::to_json(&spans),
    )?;
    doc.insert("spans_recorded".into(), spans.len().into());
    doc.insert(
        "detail".into(),
        Json::Object(std::mem::take(&mut layers.detail)),
    );
    doc.insert(
        "traced_episode_samples".into(),
        json!({
            "ops_per_s": traced_rates,
            "timed_s": traced.iter().map(|e| e.timed_s).collect::<Vec<_>>(),
        }),
    );
    // Every per-layer metric is printed; one that does not apply to this
    // workload reads 0.
    let metrics = metric_map(
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, layers.get(m.name).unwrap_or(0.0))),
    );
    Ok(Measured {
        episodes: plain,
        traced,
        record_name: format!("{workload}.layers.json"),
        metrics,
    })
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let scale = Scale { smoke: args.smoke };
    let workload = workload::build(&args.workload, args.seed, scale).ok_or_else(|| {
        format!(
            "unknown workload '{}'; expected one of {}",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let scratch = args
        .out
        .join(format!("tmp-{}-{}", args.workload, std::process::id()));
    let mut episodes = Episodes {
        workload: workload.as_ref(),
        scratch: scratch.clone(),
        next: 0,
    };
    let seconds = if args.smoke { 0.0 } else { args.seconds };

    let mut doc = Map::new();
    doc.insert("benchmark".into(), "flockbench".into());
    doc.insert("workload".into(), workload.name().into());
    doc.insert(
        "env".into(),
        env::record(args.seed, seconds, args.smoke, args.trace),
    );
    doc.insert("config".into(), workload.config());

    let Measured {
        episodes: done,
        traced,
        record_name,
        metrics,
    } = if args.trace {
        traced_run(args, &mut episodes, &mut doc)?
    } else {
        untraced_run(seconds, &mut episodes, &mut doc)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let attempted: u64 = done.iter().chain(&traced).map(|e| e.attempted).sum();
    let failed: u64 = done.iter().chain(&traced).map(|e| e.failed).sum();
    // With one writer and harness-driven background work, counts made by
    // the program must not differ between episodes of one run.
    let counters_repeat = done.windows(2).all(|w| w[0].counters == w[1].counters);
    doc.insert("episodes".into(), done.len().into());
    doc.insert(
        "timed_seconds".into(),
        done.iter().map(|e| e.timed_s).sum::<f64>().into(),
    );
    doc.insert(
        "latency_percentiles_by_kind".into(),
        percentile_report(workload.kinds(), &done),
    );
    doc.insert(
        "counters_repeat_across_episodes".into(),
        counters_repeat.into(),
    );
    doc.insert("attempted".into(), attempted.into());
    doc.insert("failed".into(), failed.into());
    doc.insert("correct".into(), (failed == 0).into());
    doc.insert("metrics".into(), metrics.clone());

    let record_path = args.out.join(record_name);
    write_json(&record_path, &Json::Object(doc))?;
    let line = json!({
        "correct": failed == 0,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics,
    });
    Ok(RunOutput { line, record_path })
}
