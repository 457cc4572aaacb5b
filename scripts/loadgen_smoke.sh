#!/usr/bin/env sh
# Loadgen smoke test: start `ghr serve --socket --max-inflight 2
# --sessions 16`, drive it closed-loop with `ghr loadgen --socket` (2
# warm conns — never past the budget — and an 8-conn overload phase whose
# cold contention volley must trip it), require nonzero throughput, a
# present p99, and counted `reason=overload` rejections, then stop the
# server with SIGTERM and require a clean drain. That the warm path
# evaluates nothing for any request class is a tier-1 test
# (crates/core/tests/cache_race.rs and the engine's recombine test).
set -eu

cd "$(dirname "$0")/.."

GHR="${GHR:-target/release/ghr}"
if [ ! -x "$GHR" ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM
export GHR_CACHE_DIR="$WORK/cache"

echo "==> socket loadgen against --max-inflight 2"
SOCK="$WORK/ghr.sock"
"$GHR" serve --socket "$SOCK" \
    --sessions 16 --max-inflight 2 --threads 2 \
    > "$WORK/srv.out" 2> "$WORK/srv.err" &
SRV=$!
tries=0
while [ ! -S "$SOCK" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "FAIL: serve socket never appeared" >&2
        cat "$WORK/srv.err" >&2
        exit 1
    fi
    sleep 0.05
done

"$GHR" loadgen --socket "$SOCK" --catalog 3 --requests 400 --conns 2 \
    --overload-conns 8 --out "$WORK/BENCH_loadgen_socket.json" > "$WORK/sock.out"
cat "$WORK/sock.out"

sjson="$WORK/BENCH_loadgen_socket.json"
for key in '"mode": "socket"' '"name": "cold"' '"name": "warm"' \
    '"name": "overload"' '"p99"'; do
    if ! grep -q "$key" "$sjson"; then
        echo "FAIL: $key missing from socket report" >&2
        cat "$sjson" >&2
        exit 1
    fi
done
# The overload phase must have been explicitly rejected at least once,
# and the warm phase (2 conns vs budget 2) never.
overloads=$(sed -n 's/.*"name": "overload".*"overloaded": \([0-9]*\),.*/\1/p' "$sjson")
if [ -z "$overloads" ] || [ "$overloads" -eq 0 ]; then
    echo "FAIL: overload phase saw no reason=overload rejections" >&2
    cat "$sjson" "$WORK/srv.err" >&2
    exit 1
fi
if ! sed -n '/"name": "warm"/p' "$sjson" | grep -q '"overloaded": 0,'; then
    echo "FAIL: warm phase within the budget was rejected" >&2
    cat "$sjson" >&2
    exit 1
fi
if sed -n '/"name": "warm"/p' "$sjson" | grep -q '"throughput_rps": 0[,}]'; then
    echo "FAIL: warm socket phase moved no traffic" >&2
    cat "$sjson" >&2
    exit 1
fi
echo "==> overload contract: $overloads request(s) rejected, warm phase clean"

echo "==> SIGTERM drains the server cleanly"
kill -TERM "$SRV"
wait "$SRV"
if [ -S "$SOCK" ]; then
    echo "FAIL: socket file survived the drain" >&2
    exit 1
fi
if ! grep -q 'rejected with reason=overload' "$WORK/srv.err"; then
    echo "FAIL: server did not log its overload rejections" >&2
    cat "$WORK/srv.err" >&2
    exit 1
fi

echo "loadgen smoke: OK"
