#!/usr/bin/env sh
# Cross-process persistent-cache smoke test: run the full artifact suite
# twice against a fresh cache directory and require the second run to
# evaluate nothing, answer >= 95% of lookups from cache, emit
# byte-identical artifacts and leave the store file as it was. Then tear
# the store's tail (a partial row with no newline, as a crashed writer
# leaves it): a warm rerun must still hold all three, and the next cold
# request's append must cut the torn bytes off and add exactly its rows.
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

echo "==> first run (cold cache)"
"$GHR" all "$WORK/run1" --stats --threads 2 > "$WORK/out1"
grep -E '^(engine|persistent cache|refined sweeps):' "$WORK/out1"
STORE="$("$GHR" cache path)"
size1=$(wc -c < "$STORE")

# A warm `ghr all` in a fresh process: nothing evaluated, >= 95% of
# resolved lookups answered from cache, artifacts identical to run1's.
warm_run() {
    name=$1
    echo "==> $name (fresh process, warm cache)"
    "$GHR" all "$WORK/$name" --stats --threads 2 > "$WORK/$name.out"
    grep -E '^(engine|persistent cache|refined sweeps):' "$WORK/$name.out"

    echo "==> artifacts byte-identical to the first run"
    diff -r "$WORK/run1" "$WORK/$name"

    # Counters:
    #   engine: E points evaluated, H cache hits (...)
    #   persistent cache: L entries loaded, P hits, M misses, S stored
    evaluated=$(sed -n 's/^engine: \([0-9]*\) points evaluated.*/\1/p' "$WORK/$name.out")
    mem_hits=$(sed -n 's/^engine: [0-9]* points evaluated, \([0-9]*\) cache hits.*/\1/p' "$WORK/$name.out")
    p_hits=$(sed -n 's/^persistent cache: .* loaded, \([0-9]*\) hits.*/\1/p' "$WORK/$name.out")
    misses=$(sed -n 's/^persistent cache: .* \([0-9]*\) misses.*/\1/p' "$WORK/$name.out")

    echo "$name: evaluated=$evaluated persistent_hits=$p_hits" \
         "in_process_hits=$mem_hits persistent_misses=$misses"

    if [ "$evaluated" -ne 0 ]; then
        echo "FAIL: $name evaluated $evaluated points (want 0)" >&2
        exit 1
    fi

    served=$((p_hits + mem_hits))
    total=$((served + evaluated + misses))
    if [ "$total" -eq 0 ]; then
        echo "FAIL: no lookups recorded" >&2
        exit 1
    fi
    pct=$((100 * served / total))
    echo "cache answered $served of $total resolved lookups ($pct%)"
    if [ "$pct" -lt 95 ]; then
        echo "FAIL: cache-hit rate $pct% < 95%" >&2
        exit 1
    fi
}

# "  N entries for this machine fingerprint (...), S bytes" -> N
entries() {
    "$GHR" cache stats | sed -n 's/^  \([0-9]*\) entries .*/\1/p'
}

warm_run run2
size2=$(wc -c < "$STORE")
echo "store file: $size1 bytes after the cold run, $size2 after the warm run"
if [ "$size2" -ne "$size1" ]; then
    echo "FAIL: the warm run changed the store file (loaded rows appended again?)" >&2
    exit 1
fi

echo "==> torn tail: a partial row with no newline"
printf 'Gpu { torn' >> "$STORE"
warm_run run3

echo "==> one cold request appends after cutting the torn bytes off"
before=$(entries)
"$GHR" dot c1 --m 4195328 > /dev/null
after=$(entries)
last=$(tail -c 1 "$STORE" | od -An -tx1 | tr -d ' \n')
if [ "$last" != 0a ]; then
    echo "FAIL: the store file does not end in a newline (last byte $last)" >&2
    exit 1
fi
if grep -qF 'Gpu { torn' "$STORE"; then
    echo "FAIL: the torn bytes are still in the store file" >&2
    exit 1
fi
echo "entries: $before before, $after after"
if [ "$after" -ne $((before + 7)) ]; then
    echo "FAIL: want exactly 7 more entries (one 7-point teams sweep)" >&2
    exit 1
fi

echo "cache smoke: OK"
