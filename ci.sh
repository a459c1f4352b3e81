#!/usr/bin/env bash
# Local CI gate: build, test, lint, format. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> perfbench tests (passes repeat their simulated figures exactly; tracing leaves the simulation unchanged)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> psim-lint (static program verification gate)"
cargo run -q --release -p psim-bench --bin psim_lint
if base=$(git show HEAD:results/psim_lint.json 2>/dev/null); then
  if [ "$base" = "$(cat results/psim_lint.json)" ]; then
    echo "lint delta: results/psim_lint.json unchanged vs HEAD"
  else
    echo "lint delta: results/psim_lint.json CHANGED vs HEAD:"
    diff <(printf '%s\n' "$base" | tr ',' '\n') <(tr ',' '\n' < results/psim_lint.json) | head -40 || true
  fi
else
  echo "lint delta: no committed results/psim_lint.json at HEAD (first run)"
fi

echo "==> psim-model (concurrency model-check gate, scaled down; writes results/psim_model.json)"
cargo run -q --release -p psim-bench --bin psim_model -- --budget 4000
test -s results/psim_model.json || { echo "missing results/psim_model.json" >&2; exit 1; }

echo "==> sched test suite under the instrumented sync backend (PSIM_SYNC=instrument)"
PSIM_SYNC=instrument cargo test -q -p psim-sched

echo "==> psim-check (protocol + kernel-semantics validation gate)"
cargo run -q --release -p psim-bench --bin psim_check

echo "==> psim-trace (cycle-attribution conservation gate; writes results/BENCH_trace.json)"
cargo run -q --release -p psim-bench --bin psim_trace

echo "==> psim-soak (service-mode fusion/steal soak, scaled down; writes results/BENCH_soak.json)"
cargo run -q --release -p psim-bench --bin soak_sched -- --jobs 30000 --gate
test -s results/BENCH_soak.json || { echo "missing results/BENCH_soak.json" >&2; exit 1; }

echo "==> psim-autotune (layout autotuner gate: oracle, geomean win, rank agreement; writes results/BENCH_autotune.json)"
cargo run -q --release -p psim-bench --bin ablation_autotune
test -s results/BENCH_autotune.json || { echo "missing results/BENCH_autotune.json" >&2; exit 1; }

echo "==> cargo clippy --workspace --all-targets (deny warnings + pedantic subset)"
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::semicolon_if_nothing_returned \
  -D clippy::uninlined_format_args \
  -D clippy::redundant_closure_for_method_calls \
  -D clippy::explicit_iter_loop \
  -D clippy::manual_let_else \
  -D clippy::needless_pass_by_value \
  -D clippy::items_after_statements

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI OK"
