#!/usr/bin/env bash
# Smoke-runs every workload twice and diffs the pairs. Ready for a later
# PR to call from .github/workflows/ci.yml; it is documentation of the
# flow, not a gate: a twentieth-size run on a shared runner is noisy, so
# only a crash or a wrong result (exit code 2, or "correct": false) should
# fail a build, not the diff's verdicts.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
out="$CARGO_TARGET_DIR/flockbench/ci"
cargo build --release --offline --quiet --manifest-path flockbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/flockbench"
for w in serve_point predict_scan ingest_durable scan_parts; do
  for side in a b; do
    "$bin" run --workload "$w" --seed 1 --smoke --out "$out/$side" | tail -n 1 | grep -q '"correct":true'
  done
  "$bin" run --workload "$w" --seed 1 --smoke --trace --out "$out/a" | tail -n 1 | grep -q '"correct":true'
  "$bin" diff "$out/a/$w.json" "$out/b/$w.json" || echo "ci.sh: $w differs between two smoke runs (informational)"
done
echo "ci.sh: all workloads ran and verified their results"
