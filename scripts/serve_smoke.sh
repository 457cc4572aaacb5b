#!/usr/bin/env sh
# Serve-loop smoke test, three phases:
#   1. sequential: start `ghr serve` and feed it, over a pipe, table1,
#      whatif, table1 --compare, an array larger than the machine, and
#      table1 twice more. Require the --compare variant to share table1's
#      id but not its body, the oversized line to get an error frame while
#      the server keeps answering, and both later table1 frames to be
#      answered from the response cache with 0 evaluations and the first
#      frame's exact body (the render memo) — in the frame headers and in
#      the session's --stats-json object on stderr.
#   2. checksum witness: send two never-seen `dot c2` lines that differ
#      only in --m through one session; both must evaluate (cached=no,
#      evals>0) and carry the same functional checksum line.
#      (scripts/workload_smoke.sh compares the checksums across SIMD
#      backends.)
#   3. concurrent: start `ghr serve --socket --sessions 4`, hammer it
#      with four background clients sending overlapping request ids,
#      require warm duplicates to report evals=0 and byte-identical
#      bodies, then stop the server with SIGTERM and require a clean
#      drain (exit 0, socket file removed).
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

OVERSIZED='dot c1 --m 100000000000000'
echo "==> serve session: table1, whatif, table1 --compare, $OVERSIZED, table1 x2, quit"
printf 'table1\nwhatif\ntable1 --compare\n%s\ntable1\ntable1\nquit\n' "$OVERSIZED" \
    | "$GHR" serve --stats-json --threads 2 > "$WORK/out" 2> "$WORK/err"

frames=$(grep -c '^ghr-response ' "$WORK/out")
if [ "$frames" -ne 6 ]; then
    echo "FAIL: expected 6 response frames, got $frames" >&2
    cat "$WORK/out" >&2
    exit 1
fi
grep '^ghr-response ' "$WORK/out"

header() { grep '^ghr-response ' "$WORK/out" | sed -n "$1p"; }
id_of() { echo "$1" | sed 's/.* id=\([0-9a-f-]*\) .*/\1/'; }

first=$(header 1)
case "$first" in
    *" status=ok "*) ;;
    *) echo "FAIL: cold request did not succeed: $first" >&2; exit 1 ;;
esac

# Split the frames apart: body N is frame N's body.
awk '/^ghr-response /{n++; next} /^ghr-end$/{next} {print > sprintf("'"$WORK"'/body%d", n)}' "$WORK/out"

compare=$(header 3)
if [ "$(id_of "$compare")" != "$(id_of "$first")" ]; then
    echo "FAIL: table1 --compare does not share table1's id: $compare" >&2
    exit 1
fi
if cmp -s "$WORK/body1" "$WORK/body3"; then
    echo "FAIL: table1 --compare rendered table1's body" >&2
    exit 1
fi

oversized=$(header 4)
case "$oversized" in
    *" status=error "*) ;;
    *) echo "FAIL: the oversized array was not refused: $oversized" >&2; exit 1 ;;
esac
if ! grep -q 'array larger than the machine' "$WORK/body4"; then
    echo "FAIL: the oversized array's error frame does not name the reason" >&2
    cat "$WORK/body4" >&2
    exit 1
fi

# Both repeats come from the response cache and the render memo: no
# evaluation, the same id, and the first frame's exact body.
for n in 5 6; do
    warm=$(header "$n")
    case "$warm" in
        *" status=ok "*" evals=0 cached=yes"*) ;;
        *) echo "FAIL: table1 repeat $n was not a warm hit: $warm" >&2; exit 1 ;;
    esac
    if [ "$(id_of "$warm")" != "$(id_of "$first")" ]; then
        echo "FAIL: table1 repeat $n changed id: $warm" >&2
        exit 1
    fi
    if ! cmp -s "$WORK/body1" "$WORK/body$n"; then
        echo "FAIL: table1 repeat $n body differs from the first" >&2
        exit 1
    fi
done

echo "==> --stats-json on stderr records the response hits"
json=$(grep '^{' "$WORK/err")
echo "$json"
# The oversized line is refused before it reaches the engine's counters;
# the other five are requests, three of them response-cache hits.
case "$json" in
    *'"requests":5,'*) ;;
    *) echo "FAIL: stats JSON does not show 5 requests" >&2; exit 1 ;;
esac
case "$json" in
    *'"response_hits":3,'*) ;;
    *) echo "FAIL: stats JSON does not show the 3 response-cache hits" >&2; exit 1 ;;
esac
case "$json" in
    *'"stages":['*'"name":"assemble"'*) ;;
    *) echo "FAIL: stats JSON lacks per-stage executor timings" >&2; exit 1 ;;
esac

WITNESS_A='dot c2 --m 4194304'
WITNESS_B='dot c2 --m 4195328'
echo "==> checksum witness: $WITNESS_A, $WITNESS_B through one session"
printf '%s\n%s\nquit\n' "$WITNESS_A" "$WITNESS_B" \
    | "$GHR" serve --no-cache --threads 2 > "$WORK/wit" 2> /dev/null
grep '^ghr-response ' "$WORK/wit"
if [ "$(grep -c '^ghr-response .* status=ok .* evals=[1-9][0-9]* cached=no$' "$WORK/wit")" -ne 2 ]; then
    echo "FAIL: both witness lines must be fresh evaluations (cached=no, evals>0)" >&2
    cat "$WORK/wit" >&2
    exit 1
fi
grep '^functional checksum ' "$WORK/wit" > "$WORK/wit_sums"
if [ "$(wc -l < "$WORK/wit_sums")" -ne 2 ] || [ "$(sort -u "$WORK/wit_sums" | wc -l)" -ne 1 ]; then
    echo "FAIL: the witness lines' functional checksums differ or are missing" >&2
    cat "$WORK/wit_sums" >&2
    exit 1
fi
sed -n 1p "$WORK/wit_sums"

echo "==> concurrent serve: 4 clients over a socket, overlapping ids"
SOCK="$WORK/ghr.sock"
# A fresh cache dir so the socket server starts cold and the evals=0
# assertions below genuinely exercise the shared response cache.
GHR_CACHE_DIR="$WORK/cache2" "$GHR" serve --socket "$SOCK" --sessions 4 --threads 2 \
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

# Warm the response cache with one cold table1, then race four clients
# whose batches all duplicate it (and race each other on whatif).
"$GHR" client --socket "$SOCK" table1 > "$WORK/c0"
pids=""
for i in 1 2 3 4; do
    "$GHR" client --socket "$SOCK" table1 whatif table1 > "$WORK/c$i" &
    pids="$pids $!"
done
for p in $pids; do
    wait "$p"
done

# Every client got its three frames, all ok, no torn output.
for i in 1 2 3 4; do
    n=$(grep -c '^ghr-response ' "$WORK/c$i")
    if [ "$n" -ne 3 ]; then
        echo "FAIL: client $i expected 3 frames, got $n" >&2
        cat "$WORK/c$i" >&2
        exit 1
    fi
    if grep '^ghr-response ' "$WORK/c$i" | grep -v ' status=ok ' >&2; then
        echo "FAIL: client $i has a non-ok frame" >&2
        exit 1
    fi
done

# 12 frames total; at most one (the whatif leader) may evaluate — every
# warm duplicate must report evals=0.
warm=$(grep -h '^ghr-response ' "$WORK"/c1 "$WORK"/c2 "$WORK"/c3 "$WORK"/c4 \
    | grep -c ' evals=0 ')
if [ "$warm" -lt 11 ]; then
    echo "FAIL: warm duplicates re-evaluated ($warm of 12 frames had evals=0)" >&2
    grep -h '^ghr-response ' "$WORK"/c1 "$WORK"/c2 "$WORK"/c3 "$WORK"/c4 >&2
    exit 1
fi

# Bodies (headers stripped — they legitimately differ in cached=) are
# byte-identical across all racing clients.
for i in 1 2 3 4; do
    grep -v '^ghr-response ' "$WORK/c$i" > "$WORK/cbody$i"
done
for i in 2 3 4; do
    if ! cmp -s "$WORK/cbody1" "$WORK/cbody$i"; then
        echo "FAIL: client $i body differs from client 1" >&2
        exit 1
    fi
done

echo "==> SIGTERM drains the server cleanly"
kill -TERM "$SRV"
wait "$SRV"
if [ -S "$SOCK" ]; then
    echo "FAIL: socket file survived the drain" >&2
    exit 1
fi
if ! grep -q 'served 13 request(s)' "$WORK/srv.out"; then
    echo "FAIL: server did not account all 13 requests" >&2
    cat "$WORK/srv.out" "$WORK/srv.err" >&2
    exit 1
fi

echo "serve smoke: OK"
