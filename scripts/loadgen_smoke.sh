#!/usr/bin/env sh
# Loadgen smoke test, two phases:
#   1. in-process: `ghr loadgen` against the engine; BENCH_loadgen.json
#      must carry cold/warm/warm_recombine phases with p50/p95/p99 and
#      a per-class latency breakdown (gpu-point, corun-series,
#      corun-point, what-if). Neither warm phase may evaluate anything:
#      `warm` replays ids the cold pass published, and warm_recombine
#      assembles every never-seen id from warm item caches.
#   2. socket: start `ghr serve --socket --max-inflight 2 --sessions 16`,
#      drive it closed-loop with `ghr loadgen --socket` (2 warm conns —
#      never past the budget — and an 8-conn overload phase whose cold
#      contention volley must trip it), require nonzero throughput, a
#      present p99, and counted `reason=overload` rejections, then stop
#      the server with SIGTERM and require a clean drain.
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

echo "==> in-process loadgen (zipf mix, cold/warm/warm_recombine phases)"
"$GHR" loadgen --catalog 16 --requests 50000 --conns 4 \
    --out "$WORK/BENCH_loadgen.json" > "$WORK/out"
cat "$WORK/out"

json="$WORK/BENCH_loadgen.json"
if [ ! -s "$json" ]; then
    echo "FAIL: BENCH_loadgen.json was not written" >&2
    exit 1
fi
for key in '"bench": "loadgen"' '"name": "cold"' '"name": "warm"' \
    '"name": "warm_recombine"' '"p50"' '"p95"' '"p99"' \
    '"throughput_rps"' '"classes": ['; do
    if ! grep -qF "$key" "$json"; then
        echo "FAIL: $key missing from BENCH_loadgen.json" >&2
        cat "$json" >&2
        exit 1
    fi
done
# Every request class shows up in the per-class latency breakdown.
for class in gpu-point corun-series corun-point what-if; do
    if ! grep -qF "\"name\": \"$class\"" "$json"; then
        echo "FAIL: class $class missing from the breakdown" >&2
        cat "$json" >&2
        exit 1
    fi
done
# Both warm phases are pure cache traffic: the zipf replay and the
# recombine phase (never-seen ids assembled purely from warm item
# caches) must not evaluate anything.
for phase in '"name": "warm"' '"name": "warm_recombine"'; do
    if ! sed -n "/$phase,/p" "$json" | grep -qF '"evaluated": 0}'; then
        echo "FAIL: phase $phase evaluated fresh work" >&2
        cat "$json" >&2
        exit 1
    fi
done
# The warm phases answered every request and moved actual traffic.
if grep -q '"throughput_rps": 0[,}]' "$json"; then
    echo "FAIL: a phase reported zero throughput" >&2
    cat "$json" >&2
    exit 1
fi
echo "==> BENCH_loadgen.json: evaluation-free warm phases + class breakdown"

echo "==> socket loadgen against --max-inflight 2"
SOCK="$WORK/ghr.sock"
GHR_CACHE_DIR="$WORK/cache2" "$GHR" serve --socket "$SOCK" \
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

# Keep the in-process report for the CI artifact upload.
cp "$json" BENCH_loadgen.json

echo "loadgen smoke: OK"
