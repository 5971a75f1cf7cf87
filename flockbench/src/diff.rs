//! `flockbench diff <a.json> <b.json>`: compares two runs of one workload
//! under the bounds the benchmark fixed.
//!
//! One row per metric present in both files, with both values and the
//! ratio `b / a` (base `a`). An end-to-end metric that got worse by more
//! than its bound is a *regression*; one within its bound whose
//! run-to-run spread (interquartile distance over the per-episode samples,
//! as a share of their median) exceeds the bound is *unresolved*, not
//! unchanged. More failed operations than the base is a regression.

use crate::metrics::{self, Better};
use crate::stats::spread;
use serde_json::Value as Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Unresolved,
    Unchanged,
    Better,
    /// A per-layer metric: shown, never judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Info => "-",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
    /// Larger of the two files' sample spreads, when either has samples.
    pub spread: Option<f64>,
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    let worse = worse_by(a, b, better);
    if worse > bound {
        Verdict::Regression
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The bound for `name`: from `BENCHMARK.json` when given, else the one
/// compiled in (a test keeps the two equal).
fn bound_for(name: &str, benchmark: Option<&Json>) -> Option<f64> {
    let from_file = benchmark.and_then(|doc| {
        doc["end_to_end"]
            .as_array()?
            .iter()
            .find(|m| m["name"] == name)?
            .get("bound")?
            .as_f64()
    });
    from_file.or_else(|| metrics::find(name).and_then(|m| m.bound))
}

fn sample_spread(doc: &Json, name: &str) -> Option<f64> {
    let values: Vec<f64> = doc["samples"][name]
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    spread(&values)
}

pub fn compare(a: &Json, b: &Json, benchmark: Option<&Json>) -> Result<Vec<Row>, String> {
    if a["workload"] != b["workload"] {
        return Err(format!(
            "the files are runs of different workloads: {} and {}",
            a["workload"], b["workload"]
        ));
    }
    let (Some(ma), Some(mb)) = (a["metrics"].as_object(), b["metrics"].as_object()) else {
        return Err("both files need a \"metrics\" object".to_string());
    };
    let mut rows = Vec::new();
    for (name, entry) in ma {
        let (Some(va), Some(vb)) = (
            entry["value"].as_f64(),
            mb.get(name).and_then(|e| e["value"].as_f64()),
        ) else {
            continue;
        };
        let def = metrics::find(name);
        let spread = [sample_spread(a, name), sample_spread(b, name)]
            .into_iter()
            .flatten()
            .reduce(f64::max);
        let verdict = match (def, bound_for(name, benchmark)) {
            (Some(def), Some(bound)) => judge(va, vb, def.better, bound, spread),
            _ => Verdict::Info,
        };
        rows.push(Row {
            name: name.clone(),
            unit: entry["unit"].as_str().unwrap_or("").to_string(),
            a: va,
            b: vb,
            verdict,
            spread,
        });
    }
    // fail_ratio carries no tolerance: any increase is a regression.
    let failed = |doc: &Json| {
        doc["failed"].as_f64().unwrap_or(0.0) / doc["attempted"].as_f64().unwrap_or(1.0).max(1.0)
    };
    let (fa, fb) = (failed(a), failed(b));
    rows.push(Row {
        name: "fail_ratio".to_string(),
        unit: "ratio".to_string(),
        a: fa,
        b: fb,
        verdict: if fb > fa {
            Verdict::Regression
        } else {
            Verdict::Unchanged
        },
        spread: None,
    });
    Ok(rows)
}

pub fn render(workload: &str, rows: &[Row]) -> String {
    let mut out = format!(
        "{workload}\n{:<36} {:>16} {:>16} {:>9} {:>8}  {}\n",
        "metric [unit]", "a (base)", "b", "b/a", "spread", "verdict"
    );
    for r in rows {
        let ratio = if r.a != 0.0 {
            format!("{:.3}", r.b / r.a)
        } else {
            "n/a".to_string()
        };
        let spread = r
            .spread
            .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
        out.push_str(&format!(
            "{:<36} {:>16.4} {:>16.4} {:>9} {:>8}  {}\n",
            format!("{} [{}]", r.name, r.unit),
            r.a,
            r.b,
            ratio,
            spread,
            r.verdict.as_str()
        ));
    }
    out
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let benchmark = load(Path::new("BENCHMARK.json")).ok();
    let rows = compare(&a, &b, benchmark.as_ref())?;
    print!("{}", render(a["workload"].as_str().unwrap_or("?"), &rows));
    let regressions: Vec<&str> = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .map(|r| r.name.as_str())
        .collect();
    if !regressions.is_empty() {
        println!("regressed: {}", regressions.join(", "));
    }
    Ok(regressions.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(100.0, 111.0, Better::Lower, 0.10, Some(0.02)),
            Verdict::Regression
        );
        assert_eq!(
            judge(100.0, 109.0, Better::Lower, 0.10, Some(0.02)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(100.0, 85.0, Better::Lower, 0.10, Some(0.02)),
            Verdict::Better
        );
        // Inside the bound but noisier than the bound: cannot be called.
        assert_eq!(
            judge(100.0, 104.0, Better::Lower, 0.10, Some(0.30)),
            Verdict::Unresolved
        );
        // A regression stays one however noisy the samples.
        assert_eq!(
            judge(100.0, 150.0, Better::Lower, 0.10, Some(0.30)),
            Verdict::Regression
        );
        // Higher is better: losing throughput is the regression.
        assert_eq!(
            judge(1000.0, 880.0, Better::Higher, 0.10, None),
            Verdict::Regression
        );
        assert_eq!(
            judge(1000.0, 1200.0, Better::Higher, 0.10, None),
            Verdict::Better
        );
        assert_eq!(
            judge(1000.0, 950.0, Better::Higher, 0.10, None),
            Verdict::Unchanged
        );
    }

    fn run_doc(ops: f64, p50: f64, samples: [f64; 4], failed: u64) -> Json {
        json!({
            "workload": "serve_point",
            "attempted": 1000, "failed": failed,
            "metrics": {
                "ops_per_s": {"value": ops, "unit": "1/s"},
                "lat_p50_us": {"value": p50, "unit": "us"},
                "plancache.hits": {"value": 10, "unit": "count"},
            },
            "samples": {"lat_p50_us": samples.to_vec()},
        })
    }

    #[test]
    fn compare_judges_bounded_metrics_and_only_shows_the_rest() {
        let a = run_doc(1000.0, 200.0, [199.0, 200.0, 201.0, 200.0], 0);
        let b = run_doc(800.0, 205.0, [150.0, 205.0, 290.0, 205.0], 1);
        let tight = json!({"end_to_end": [
            {"name": "ops_per_s", "bound": 0.10}, {"name": "lat_p50_us", "bound": 0.10},
        ]});
        let rows = compare(&a, &b, Some(&tight)).unwrap();
        let verdict = |n: &str| rows.iter().find(|r| r.name == n).unwrap().verdict;
        assert_eq!(verdict("ops_per_s"), Verdict::Regression);
        assert_eq!(verdict("lat_p50_us"), Verdict::Unresolved);
        assert_eq!(verdict("plancache.hits"), Verdict::Info);
        assert_eq!(verdict("fail_ratio"), Verdict::Regression);
        let text = render("serve_point", &rows);
        assert!(
            text.contains("0.800") && text.contains("REGRESSION"),
            "{text}"
        );

        // The bound comes from BENCHMARK.json when it is given.
        let loose = json!({"end_to_end": [{"name": "ops_per_s", "bound": 0.25}]});
        let rows = compare(&a, &b, Some(&loose)).unwrap();
        assert_eq!(
            rows.iter().find(|r| r.name == "ops_per_s").unwrap().verdict,
            Verdict::Unchanged
        );

        let other = json!({"workload": "scan_parts", "metrics": {}});
        assert!(compare(&a, &other, None).is_err());
    }
}
