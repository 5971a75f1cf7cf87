//! The environment every output records, so a number can be traced back
//! to the host, toolchain and settings that produced it.

use serde_json::{json, Value as Json};

/// Cores the process may use; client threads and intra-query degree are
/// both capped by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's commit, read from `.git` without starting a process;
/// "unknown" outside a git checkout (the benchmark driver runs from an
/// exported tree).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One field of `/proc/self/status` in kB.
fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

pub fn record(seed: u64, seconds: f64, smoke: bool, traced: bool) -> Json {
    let nproc = nproc();
    json!({
        "nproc": nproc,
        "client_threads": nproc.min(2),
        "intra_query_degree": flock_sql::exec::ExecOptions::default().threads,
        "git_rev": git_rev(),
        "rustc": rustc_version(),
        "seed": seed,
        "seconds": seconds,
        "size": if smoke { "smoke" } else { "full" },
        "traced": traced,
        "fsync_policy": "DurabilityOptions::default(): fsync_on_commit = true, checkpoint every 64 commits",
        "external_crates": "offline stand-ins under flockbench/vendor (serde, serde_json, parking_lot, crossbeam)",
        "build": if cfg!(debug_assertions) { "debug" } else { "release" },
    })
}
