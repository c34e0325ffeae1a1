#!/bin/sh
# End-to-end smoke test of distributed suite sharding (internal/shard): run
# a matrix single-process as the baseline, then distribute the same matrix —
# under chaos injection — through an `afbench -suite -shard-coordinator`
# coordinator with two external `afshard` workers, killing one with SIGKILL
# while it holds a lease so its group must be stolen, and assert the merged
# (gzip-compressed) output is byte-identical to the baseline after
# order-normalisation (scripts/suitediff.sh), and that the surviving worker
# exits 0 once the suite merges. Used by `make suite-shard` and the CI shard
# job.
# Requires only a POSIX shell and curl.
set -eu

PORT="${AFSHARD_PORT:-19090}"
BASE="http://127.0.0.1:$PORT"
DIR="$(mktemp -d)"
COORD_PID=""
DOOMED_PID=""
SURVIVOR_PID=""

cleanup() {
    # Unquoted on purpose: a PID already reaped is empty and drops out,
    # where a quoted "" would make kill stop before the live PIDs.
    kill $COORD_PID $DOOMED_PID $SURVIVOR_PID 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

go build -o "$DIR/afbench" ./cmd/afbench
go build -o "$DIR/afshard" ./cmd/afshard

GRAPHS="grid:rows=4,cols=5;cycle:n=9;prefattach:n=24,m=2"
ENGINES="sequential,bitset"

echo "== single-process baseline"
"$DIR/afbench" -suite -graphs "$GRAPHS" -protocols amnesiac,classic \
    -engines "$ENGINES" \
    -seeds 1,2 -format jsonl -out "$DIR/baseline.jsonl" 2>/dev/null

echo "== coordinator with chaos injection and a 500ms lease TTL"
"$DIR/afbench" -suite -shard-coordinator "127.0.0.1:$PORT" \
    -graphs "$GRAPHS" -protocols amnesiac,classic -seeds 1,2 \
    -engines "$ENGINES" \
    -chaos "chaos:rate=0.4,kinds=err|panic|stall,seed=7,stall=100ms" \
    -retries 8 -backoff 5ms -timeout 60s -lease 500ms \
    -checkpoint "$DIR/ckpt.jsonl" \
    -format jsonl -out "$DIR/shard.jsonl.gz" 2>"$DIR/coord.log" &
COORD_PID=$!

i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "coordinator did not come up; log:" >&2
        cat "$DIR/coord.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "== two workers join; one is SIGKILLed holding a lease"
"$DIR/afshard" -coordinator "$BASE" -name doomed 2>/dev/null &
DOOMED_PID=$!
"$DIR/afshard" -coordinator "$BASE" -name survivor 2>/dev/null &
SURVIVOR_PID=$!

# Kill the doomed worker as soon as the coordinator grants it a lease, so the
# kill lands mid-suite with a group in flight (chaos stalls keep the group
# busy for hundreds of milliseconds).
i=0
until grep -q 'worker=doomed' "$DIR/coord.log" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "doomed worker never got a lease; log:" >&2
        cat "$DIR/coord.log" >&2
        exit 1
    fi
    sleep 0.05
done
echo "== coordinator metrics and healthz expose lease telemetry"
METRICS=$(curl -sf "$BASE/metrics")
echo "$METRICS" | grep -Eq '^afshard_leases_granted_total [1-9]' \
    || { echo "no non-zero afshard_leases_granted_total" >&2; exit 1; }
echo "$METRICS" | grep -q '^afshard_groups_pending' \
    || { echo "no afshard_groups_pending gauge" >&2; exit 1; }
curl -sf "$BASE/healthz" | grep -q '"version"' \
    || { echo "healthz misses version" >&2; exit 1; }

kill -KILL "$DOOMED_PID" 2>/dev/null || true
DOOMED_PID=""

echo "== waiting for the suite to merge"
if ! wait "$COORD_PID"; then
    echo "coordinator failed; log:" >&2
    cat "$DIR/coord.log" >&2
    exit 1
fi
COORD_PID=""

echo "== the surviving worker hears the suite is done and exits 0"
# The coordinator keeps serving until every live worker has heard the suite
# is done, so the survivor exits at once; one still running 5 s later, or
# one exiting non-zero, is polling a closed port.
i=0
while kill -0 "$SURVIVOR_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "survivor worker still running 5 s after the suite merged" >&2
        exit 1
    fi
    sleep 0.1
done
if ! wait "$SURVIVOR_PID"; then
    echo "survivor worker exited non-zero after the suite merged" >&2
    exit 1
fi
SURVIVOR_PID=""

echo "== merged output is gzip and byte-identical to the baseline"
gunzip -c "$DIR/shard.jsonl.gz" > "$DIR/shard.jsonl"
./scripts/suitediff.sh "$DIR/baseline.jsonl" "$DIR/shard.jsonl"

if grep -q "expired; reassigning" "$DIR/coord.log"; then
    echo "   (killed worker's lease was stolen, as intended)"
else
    # The doomed worker can very occasionally deliver its group in the gap
    # between lease grant and SIGKILL; byte identity above is the hard gate.
    echo "   (note: no lease expired — the kill raced a completed upload)"
fi

echo "shard smoke: OK"
