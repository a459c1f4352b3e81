#!/usr/bin/env bash
# Local CI gate: build, test, lint, docs, format. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace --locked (Cargo.lock must already match the manifests)"
cargo build --release --workspace --locked

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> core and kernels unit tests in release (the configuration the benchmark runs: no follower reruns, no forced answer recording, no rechecked shortcuts)"
cargo test -q --release -p psyncpim-core -p psim-kernels --lib

echo "==> perfbench tests --locked (a dependency edit must not rewrite perfbench/Cargo.lock; passes repeat their simulated figures exactly; tracing leaves the simulation unchanged)"
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> sched test suite under the instrumented sync backend (PSIM_SYNC=instrument)"
PSIM_SYNC=instrument cargo test -q -p psim-sched

echo "==> results check (every committed artifact regenerates byte-identically; every gate holds; writes nothing)"
cargo run -q --release -p psim-bench -- --check

echo "==> examples (each runs to completion and exits 0)"
for example in quickstart graph_analytics linear_solver pim_assembly custom_matrix; do
  echo "--> $example"
  cargo run -q --release --example "$example" > /dev/null
done

echo "==> cargo clippy --workspace --all-targets (deny warnings + pedantic subset)"
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::semicolon_if_nothing_returned \
  -D clippy::uninlined_format_args \
  -D clippy::redundant_closure_for_method_calls \
  -D clippy::explicit_iter_loop \
  -D clippy::manual_let_else \
  -D clippy::needless_pass_by_value \
  -D clippy::items_after_statements

echo "==> perfbench clippy (its own package, built against the crates by path; deny warnings)"
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings: every doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> perfbench doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --manifest-path perfbench/Cargo.toml --no-deps

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> perfbench fmt --check"
cargo fmt --manifest-path perfbench/Cargo.toml --all --check

echo "CI OK"
