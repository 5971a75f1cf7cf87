//! Every metric the benchmark reports, by name, with its unit, the
//! direction that is better, and — for end-to-end metrics — the share of
//! the parent's median by which it may worsen before `diff` calls it a
//! regression. `BENCHMARK.json` carries the same lists; a test keeps the
//! two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Measured with tracing off; each is
/// defined, and never zero, on all four workloads.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("rows_per_s", "1/s", Better::Higher, 0.25),
    e2e("lat_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Single layers, `<layer>.<metric>`. Timings come from the traced run;
/// plain counters are read from the untraced episode that precedes it.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Client-side figures that are end-to-end in kind but cannot hold a
    // bound on every workload (see README, "Metrics moved to this list").
    lower("client.lat_p95_us", "us"),
    lower("client.lat_p99_us", "us"),
    lower("client.fail_ratio", "ratio"),
    lower("client.recover_s", "s"),
    lower("client.space_amp", "ratio"),
    lower("client.rtt_us", "us"),
    // crates/server: protocol.rs, lib.rs
    lower("protocol.req_encode_ns", "ns"),
    lower("protocol.req_decode_ns", "ns"),
    lower("protocol.reply_encode_ns", "ns"),
    lower("protocol.reply_decode_ns", "ns"),
    lower("protocol.bytes_per_reply", "bytes"),
    lower("server.wire_overhead_us", "us"),
    lower("server.admission_retries", "count"),
    lower("server.frames_rejected", "count"),
    lower("server.connections_open_after", "count"),
    // crates/sql: lexer.rs, parser.rs, plancache.rs
    lower("lexer.tokenize_ns", "ns"),
    lower("lexer.tokens_per_stmt", "count"),
    lower("parser.parse_ns", "ns"),
    lower("plancache.normalize_ns", "ns"),
    higher("plancache.hits", "count"),
    lower("plancache.misses", "count"),
    lower("plancache.invalidations", "count"),
    higher("plancache.hit_ratio", "ratio"),
    // crates/sql: plan.rs, optimizer.rs; crates/core: xopt
    lower("plan.plan_ns", "ns"),
    lower("optimizer.optimize_ns", "ns"),
    lower("xopt.rewrite_ns", "ns"),
    lower("xopt.specialized_nodes_ratio", "ratio"),
    // crates/sql: exec/
    lower("exec.physical_plan_ns", "ns"),
    lower("exec.total_ns", "ns"),
    lower("exec.scan.ns", "ns"),
    lower("exec.scan.rows", "count"),
    lower("exec.filter.ns", "ns"),
    lower("exec.filter.rows", "count"),
    lower("exec.project.ns", "ns"),
    lower("exec.project.rows", "count"),
    lower("exec.aggregate.ns", "ns"),
    lower("exec.aggregate.rows", "count"),
    lower("exec.join.ns", "ns"),
    lower("exec.join.rows", "count"),
    lower("exec.sort.ns", "ns"),
    lower("exec.sort.rows", "count"),
    lower("exec.predict.ns", "ns"),
    lower("exec.predict.rows", "count"),
    lower("exec.rows_scanned", "count"),
    higher("exec.rows_returned", "count"),
    lower("exec.rows_scanned_per_returned", "ratio"),
    higher("exec.morsels", "count"),
    higher("exec.parallel_ops", "count"),
    // crates/core: provider.rs, registry.rs; crates/ml
    lower("provider.predict_ns", "ns"),
    lower("provider.predict_calls", "count"),
    lower("provider.rows", "count"),
    higher("registry.compile_hits", "count"),
    lower("registry.compile_misses", "count"),
    lower("ml.featurize_ns_per_row", "ns/row"),
    lower("ml.score_ns_per_row", "ns/row"),
    lower("ml.kernel_ms", "ms"),
    // crates/sql: engine.rs
    lower("engine.stmt_ns", "ns"),
    lower("engine.stmt_cached_ns", "ns"),
    lower("engine.self_ns", "ns"),
    lower("engine.attribution_gap_ratio", "ratio"),
    lower("engine.tax_ratio", "ratio"),
    lower("engine.insert_ns_per_row", "ns/row"),
    lower("engine.commit_ns", "ns"),
    // crates/sql: wal/
    lower("wal.record_encode_ns", "ns"),
    lower("wal.appends", "count"),
    lower("wal.bytes_appended", "bytes"),
    lower("checkpoint.count", "count"),
    lower("checkpoint.bytes", "bytes"),
    lower("checkpoint.ns", "ns"),
    lower("checkpoint.stall_max_us", "us"),
    // crates/sql: parts/
    lower("parts.total", "count"),
    higher("parts.merged", "count"),
    lower("parts.bytes_on_disk", "bytes"),
    higher("parts.compression_ratio", "ratio"),
    higher("parts.pruned", "count"),
    lower("parts.scanned", "count"),
    higher("parts.prune_ratio", "ratio"),
    lower("parts.decode_ns_per_part", "ns"),
    lower("parts.decode_projected_ns_per_part", "ns"),
    lower("parts.encode_ns_per_row", "ns/row"),
    lower("parts.scan_peak_bytes", "bytes"),
    // the counting DurableFs under open_with_fs
    lower("fs.appends", "count"),
    lower("fs.append_bytes", "bytes"),
    lower("fs.syncs", "count"),
    lower("fs.sync_ns", "ns"),
    lower("fs.write_all_bytes", "bytes"),
    lower("fs.reads", "count"),
    lower("fs.read_bytes", "bytes"),
    lower("fs.busy_ns", "ns"),
    lower("fs.bytes_written_per_user_byte", "ratio"),
    // crates/sql: stream.rs
    lower("stream.tick_ns", "ns"),
    higher("stream.windows_closed", "count"),
    higher("stream.rows_emitted", "count"),
    lower("stream.late_events", "count"),
    lower("stream.cq_errors", "count"),
    // traced ops_per_s over untraced
    higher("trace.overhead_ratio", "ratio"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                        m["better"].as_str().unwrap().to_string(),
                        m.get("bound").and_then(|b| b.as_f64()),
                    )
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }
}
