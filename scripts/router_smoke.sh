#!/usr/bin/env sh
# Router smoke test, five phases over a real 2-worker cluster:
#   1. correctness: `ghr router --socket --workers 2` over a shared
#      cache dir; a routed table1 body must byte-match the one-shot CLI.
#   2. determinism + cache locality: a repeated id appears in exactly
#      one worker's log, and a second pass over the whole servable
#      catalog reports zero evaluations cluster-wide.
#   3. failover: SIGKILL the worker that owns table1; the ring
#      successor must answer it with status=ok and evals=0 (warm from
#      the shared persistent store) — no client-visible error.
#   4. scale-out: `ghr loadgen --socket` at a 1-worker and a 2-worker
#      router; the 2-worker warm-phase rps must beat the 1-worker run
#      by ROUTER_MIN_SPEEDUP (defaults to 1.7 with >=4 cores, a sanity
#      bound below that — two workers cannot beat one on a single
#      core). The 2-worker report is kept as BENCH_router.json and the
#      pair must render through `ghr bench diff`, self-described by
#      their --label stamps.
#   5. TCP: the same 2-worker cluster over 127.0.0.1 — routed bodies
#      byte-match the unix run, a worker joins the ring mid-run via
#      `ghr-join` and the post-rebalance catalog pass is still fully
#      warm (evals=0 everywhere, the moved range answered from the
#      shared store), and a `ghr loadgen --tcp` warm run is kept as
#      BENCH_router_tcp.json and diffed against the unix report.
set -eu

cd "$(dirname "$0")/.."

GHR="${GHR:-target/release/ghr}"
if [ ! -x "$GHR" ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"; kill $(jobs -p) 2>/dev/null || true' EXIT INT TERM
export GHR_CACHE_DIR="$WORK/cache"

SOCK="$WORK/r.sock"
W0LOG="$SOCK.w0.log"
W1LOG="$SOCK.w1.log"

await_socket() {
    tries=0
    while [ ! -S "$1" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 200 ]; then
            echo "FAIL: socket $1 never appeared" >&2
            cat "$WORK"/*.err "$WORK"/*.log 2>/dev/null >&2 || true
            exit 1
        fi
        sleep 0.05
    done
}

echo "==> router over 2 spawned workers, shared cache dir"
"$GHR" router --socket "$SOCK" --workers 2 --sessions 8 --threads 2 \
    --stats-json > "$WORK/router.out" 2> "$WORK/router.err" &
ROUTER=$!
await_socket "$SOCK"

echo "==> routed table1 is byte-identical to the one-shot CLI"
"$GHR" client --socket "$SOCK" table1 > "$WORK/routed"
awk '/^ghr-response /{next} /^ghr-end$/{next} {print}' "$WORK/routed" > "$WORK/routed.body"
"$GHR" table1 > "$WORK/direct.body"
if ! cmp -s "$WORK/routed.body" "$WORK/direct.body"; then
    echo "FAIL: routed body differs from the one-shot CLI" >&2
    diff "$WORK/routed.body" "$WORK/direct.body" >&2 || true
    exit 1
fi

echo "==> deterministic routing: repeats of one id hit exactly one worker"
for i in 1 2 3; do
    "$GHR" client --socket "$SOCK" whatif > /dev/null
done
whatif_homes=0
for log in "$W0LOG" "$W1LOG"; do
    if grep -q 'whatif -> ok' "$log"; then
        whatif_homes=$((whatif_homes + 1))
    fi
done
if [ "$whatif_homes" -ne 1 ]; then
    echo "FAIL: repeated whatif landed on $whatif_homes worker(s), want 1" >&2
    grep 'whatif' "$W0LOG" "$W1LOG" >&2 || true
    exit 1
fi

echo "==> cluster-wide cache locality: second catalog pass evaluates nothing"
CATALOG="table1
whatif
fig1 c1
fig1 c2
fig1 c3
fig1 c4
autotune"
echo "$CATALOG" | while IFS= read -r req; do
    "$GHR" client --socket "$SOCK" "$req" > /dev/null
done
echo "$CATALOG" > "$WORK/pass2.in"
"$GHR" client --socket "$SOCK" \
    table1 whatif 'fig1 c1' 'fig1 c2' 'fig1 c3' 'fig1 c4' autotune \
    > "$WORK/pass2.out"
total=$(grep -c '^ghr-response ' "$WORK/pass2.out")
warm=$(grep '^ghr-response ' "$WORK/pass2.out" | grep -c ' evals=0 ')
if [ "$total" -ne 7 ] || [ "$warm" -ne 7 ]; then
    echo "FAIL: second pass not fully warm ($warm/$total frames with evals=0)" >&2
    grep '^ghr-response ' "$WORK/pass2.out" >&2
    exit 1
fi

echo "==> kill the table1 owner: ring successor answers it warm"
if grep -q 'table1 -> ok' "$W0LOG"; then
    OWNER_SOCK="$SOCK.w0"
else
    OWNER_SOCK="$SOCK.w1"
fi
pkill -9 -f -- "--socket $OWNER_SOCK" || {
    echo "FAIL: could not find the owner worker process" >&2
    exit 1
}
"$GHR" client --socket "$SOCK" table1 > "$WORK/failover"
if grep -q '^ghr-error ' "$WORK/failover"; then
    echo "FAIL: client saw an error frame during failover" >&2
    cat "$WORK/failover" >&2
    exit 1
fi
header=$(grep '^ghr-response ' "$WORK/failover")
case "$header" in
    *" status=ok "*) ;;
    *) echo "FAIL: failover frame not ok: $header" >&2; exit 1 ;;
esac
case "$header" in
    *" evals=0 "*) ;;
    *)
        echo "FAIL: successor re-evaluated instead of reading the shared store: $header" >&2
        exit 1
        ;;
esac
awk '/^ghr-response /{next} /^ghr-end$/{next} {print}' "$WORK/failover" > "$WORK/failover.body"
if ! cmp -s "$WORK/failover.body" "$WORK/direct.body"; then
    echo "FAIL: failover body differs" >&2
    exit 1
fi
if ! grep -q 're-routing' "$WORK/router.err"; then
    echo "FAIL: router did not log the re-route" >&2
    cat "$WORK/router.err" >&2
    exit 1
fi

echo "==> drain the 2-worker router"
kill -TERM "$ROUTER"
wait "$ROUTER"
if [ -S "$SOCK" ]; then
    echo "FAIL: router socket survived the drain" >&2
    exit 1
fi
if ! grep -q '"router":' "$WORK/router.err"; then
    echo "FAIL: --stats-json ledger missing from router stderr" >&2
    cat "$WORK/router.err" >&2
    exit 1
fi
if ! grep -q '"rerouted":1' "$WORK/router.err"; then
    echo "FAIL: ledger did not count the failover re-route" >&2
    grep '"router":' "$WORK/router.err" >&2
    exit 1
fi

echo "==> loadgen warm phase: 1-worker vs 2-worker router"
# Fresh sockets and cache dirs so both clusters warm themselves from
# cold and the comparison isolates worker count.
R1="$WORK/r1.sock"
R2="$WORK/r2.sock"
GHR_CACHE_DIR="$WORK/cache1" "$GHR" router --socket "$R1" --workers 1 \
    --sessions 8 --threads 2 > "$WORK/r1.out" 2> "$WORK/r1.err" &
R1PID=$!
await_socket "$R1"
"$GHR" loadgen --socket "$R1" --requests 2000 --conns 8 --label router-1w \
    --out "$WORK/BENCH_router_1w.json" > "$WORK/lg1.out"
kill -TERM "$R1PID"
wait "$R1PID"

GHR_CACHE_DIR="$WORK/cache2" "$GHR" router --socket "$R2" --workers 2 \
    --sessions 8 --threads 2 > "$WORK/r2.out" 2> "$WORK/r2.err" &
R2PID=$!
await_socket "$R2"
"$GHR" loadgen --socket "$R2" --requests 2000 --conns 8 --label router-2w \
    --out "$WORK/BENCH_router.json" > "$WORK/lg2.out"
kill -TERM "$R2PID"
wait "$R2PID"

warm_rps() {
    sed -n '/"name": "warm"/p' "$1" | sed -n 1p \
        | sed 's/.*"throughput_rps": \([0-9.eE+-]*\),.*/\1/'
}
warm1=$(warm_rps "$WORK/BENCH_router_1w.json")
warm2=$(warm_rps "$WORK/BENCH_router.json")
if [ -z "$warm1" ] || [ -z "$warm2" ]; then
    echo "FAIL: warm-phase throughput missing from a router bench report" >&2
    cat "$WORK/BENCH_router_1w.json" "$WORK/BENCH_router.json" >&2
    exit 1
fi

# Two workers cannot outrun one on a starved host: require the full
# 1.7x only where the cores exist, a sanity floor elsewhere. CI (and
# any >=4-core dev box) enforces the real target; ROUTER_MIN_SPEEDUP
# overrides either way.
cores=$(nproc 2>/dev/null || echo 1)
if [ -n "${ROUTER_MIN_SPEEDUP:-}" ]; then
    min="$ROUTER_MIN_SPEEDUP"
elif [ "$cores" -ge 4 ]; then
    min=1.7
elif [ "$cores" -ge 2 ]; then
    min=1.1
else
    min=0.4
fi
echo "    warm rps: 1 worker $warm1, 2 workers $warm2 (floor ${min}x on $cores core(s))"
if ! awk -v a="$warm2" -v b="$warm1" -v m="$min" 'BEGIN { exit !(a >= m * b) }'; then
    echo "FAIL: 2-worker warm rps $warm2 below ${min}x of 1-worker $warm1" >&2
    cat "$WORK/lg1.out" "$WORK/lg2.out" >&2
    exit 1
fi

echo "==> bench diff renders the labelled pair"
"$GHR" bench diff "$WORK/BENCH_router_1w.json" "$WORK/BENCH_router.json" \
    > "$WORK/diff.out"
for label in 'router-1w' 'router-2w'; do
    if ! grep -q "\[$label\]" "$WORK/diff.out"; then
        echo "FAIL: bench diff does not show the $label label" >&2
        cat "$WORK/diff.out" >&2
        exit 1
    fi
done

# Keep the 2-worker report for the CI artifact upload.
cp "$WORK/BENCH_router.json" BENCH_router.json

echo "==> TCP phase: the same cluster shape over 127.0.0.1"
PORT=$((18000 + $$ % 10000))
JOINPORT=$((PORT + 1))

await_tcp() {
    tries=0
    until "$GHR" client --tcp "$1" > /dev/null 2>&1; do
        tries=$((tries + 1))
        if [ "$tries" -gt 200 ]; then
            echo "FAIL: tcp endpoint 127.0.0.1:$1 never came up" >&2
            cat "$WORK"/*.err 2>/dev/null >&2 || true
            exit 1
        fi
        sleep 0.05
    done
}

GHR_CACHE_DIR="$WORK/cachetcp" "$GHR" router --tcp "$PORT" --workers 2 \
    --sessions 8 --threads 2 > "$WORK/rtcp.out" 2> "$WORK/rtcp.err" &
RTCP=$!
await_tcp "$PORT"

echo "==> routed-over-TCP table1 is byte-identical to the unix-run body"
"$GHR" client --tcp "$PORT" table1 > "$WORK/routed.tcp"
awk '/^ghr-response /{next} /^ghr-end$/{next} {print}' "$WORK/routed.tcp" \
    > "$WORK/routed.tcp.body"
if ! cmp -s "$WORK/routed.tcp.body" "$WORK/direct.body"; then
    echo "FAIL: TCP-routed body differs from the unix run" >&2
    diff "$WORK/routed.tcp.body" "$WORK/direct.body" >&2 || true
    exit 1
fi

echo "==> warm the catalog, then admit a third worker mid-run (ghr-join)"
echo "$CATALOG" | while IFS= read -r req; do
    "$GHR" client --tcp "$PORT" "$req" > /dev/null
done
# The joined worker needs at least as many serve slots as the router
# has sessions: every router session holds one connection per worker
# for the session's whole life (its lines for that worker queue on it
# and are answered in order), and each connection occupies a serve
# slot for as long as it is open.
"$GHR" serve --tcp "$JOINPORT" --sessions 16 --cache-dir "$WORK/cachetcp" \
    > "$WORK/joinw.log" 2> "$WORK/joinw.err" &
JOINW=$!
await_tcp "$JOINPORT"
"$GHR" client --tcp "$PORT" "ghr-join tcp:127.0.0.1:$JOINPORT" > "$WORK/join.out"
if ! grep -q 'status=ok' "$WORK/join.out" || ! grep -q 'joined' "$WORK/join.out"; then
    echo "FAIL: ghr-join did not admit the worker" >&2
    cat "$WORK/join.out" "$WORK/rtcp.err" >&2
    exit 1
fi

echo "==> post-rebalance catalog pass is still fully warm (evals=0)"
"$GHR" client --tcp "$PORT" \
    table1 whatif 'fig1 c1' 'fig1 c2' 'fig1 c3' 'fig1 c4' autotune \
    > "$WORK/pass3.out"
total=$(grep -c '^ghr-response ' "$WORK/pass3.out")
warm=$(grep '^ghr-response ' "$WORK/pass3.out" | grep -c ' evals=0 ')
if [ "$total" -ne 7 ] || [ "$warm" -ne 7 ]; then
    echo "FAIL: post-join pass not fully warm ($warm/$total frames with evals=0)" >&2
    grep '^ghr-response ' "$WORK/pass3.out" >&2
    exit 1
fi

echo "==> loadgen over TCP: kept as BENCH_router_tcp.json, diffed vs unix"
"$GHR" loadgen --tcp "$PORT" --requests 2000 --conns 8 --label router-2w-tcp \
    --out "$WORK/BENCH_router_tcp.json" > "$WORK/lgtcp.out"
if ! grep -q '"mode": "tcp"' "$WORK/BENCH_router_tcp.json"; then
    echo "FAIL: TCP loadgen report does not declare mode tcp" >&2
    grep '"mode"' "$WORK/BENCH_router_tcp.json" >&2 || true
    exit 1
fi
"$GHR" bench diff "$WORK/BENCH_router.json" "$WORK/BENCH_router_tcp.json" \
    > "$WORK/diff.tcp.out"
for label in 'router-2w' 'router-2w-tcp'; do
    if ! grep -q "\[$label\]" "$WORK/diff.tcp.out"; then
        echo "FAIL: bench diff does not show the $label label" >&2
        cat "$WORK/diff.tcp.out" >&2
        exit 1
    fi
done
cp "$WORK/BENCH_router_tcp.json" BENCH_router_tcp.json

echo "==> drain the TCP router; the join is in its ledger"
kill -TERM "$RTCP"
wait "$RTCP"
kill -TERM "$JOINW" 2>/dev/null || true
wait "$JOINW" 2>/dev/null || true
if ! grep -q 'runtime join(s) rebalanced the ring' "$WORK/rtcp.err"; then
    echo "FAIL: TCP router ledger did not record the runtime join" >&2
    cat "$WORK/rtcp.err" >&2
    exit 1
fi

echo "router smoke: OK"
