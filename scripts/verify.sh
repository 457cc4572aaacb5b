#!/usr/bin/env sh
# Repo verification: formatting, lints, rustdoc, build, and the full test
# suite. Everything here runs offline — the workspace has zero external
# dependencies (see README "Install / build") — so this script is exactly
# what CI runs and exactly what a contributor can run on a plane.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --all-targets -- -D warnings

# Rustdoc warnings fail the build, so a deleted or private item cannot
# leave a dangling doc link behind.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The concurrency acceptance suites are part of the workspace run above;
# name them explicitly so a filtered or partial test run can never skip
# the serve/engine race coverage silently.
echo "==> cargo test -q -p ghr-core --test engine_concurrency"
cargo test -q -p ghr-core --test engine_concurrency

echo "==> cargo test -q -p ghr-core --test cache_race"
cargo test -q -p ghr-core --test cache_race

# The engine's fan: item order and bit-identical output at 1 and 8
# threads, and every item mapped exactly once.
echo "==> cargo test -q -p ghr-core --test engine_determinism"
cargo test -q -p ghr-core --test engine_determinism

echo "==> cargo test -q -p ghr-parallel --test proptest_kernels"
cargo test -q -p ghr-parallel --test proptest_kernels

echo "==> cargo test -q -p ghr-cli --test serve_loop"
cargo test -q -p ghr-cli --test serve_loop

echo "==> cargo test -q -p ghr-cli --test router_cluster"
cargo test -q -p ghr-cli --test router_cluster

echo "==> cargo test -q -p ghr-cli --test transport_faults"
cargo test -q -p ghr-cli --test transport_faults

echo "==> cargo test -q -p ghr-cli --test ring_rebalance"
cargo test -q -p ghr-cli --test ring_rebalance

echo "==> cargo test -q -p ghr-parallel --test workload_parity"
cargo test -q -p ghr-parallel --test workload_parity

echo "==> scripts/workload_smoke.sh"
sh scripts/workload_smoke.sh

echo "verify: OK"
