#!/bin/sh
# Tiered verification:
#   tier 1 — build + tests (the ROADMAP gate)
#   tier 2 — go vet + race-enabled tests
# Usage: ./verify.sh [1|2]   (default: both tiers)
set -eu
cd "$(dirname "$0")"

tier="${1:-2}"
case "$tier" in
1 | 2) ;;
*)
    echo "usage: $0 [1|2]" >&2
    exit 2
    ;;
esac

# wait_addr <logfile> <pid>: ecserve prints its bound address in the
# startup banner, so the address appearing in the log doubles as the
# readiness signal. Sets $addr; dies (with a log tail) if the server
# process exits first or the banner never shows.
wait_addr() {
    addr=""
    i=0
    while [ "$i" -lt 300 ]; do
        addr="$(sed -n 's#.*on http://\([^/]*\)/v1/tasks.*#\1#p' "$1")"
        [ -n "$addr" ] && return 0
        kill -0 "$2" 2>/dev/null || {
            echo "verify: ecserve died during startup:" >&2
            tail -50 "$1" >&2
            exit 1
        }
        i=$((i + 1))
        sleep 0.1
    done
    echo "verify: ecserve never reported its address" >&2
    tail -50 "$1" >&2
    exit 1
}

echo "== tier 1: go build ./..."
go build ./...
echo "== tier 1: gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "verify: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== tier 1: go test ./... (coverage of internal/)"
covtmp="$(mktemp -d)"
go test -coverpkg=./internal/... -coverprofile="$covtmp/cover.out" ./...
# The coverage ratchet (ROADMAP item 26): a statement in internal/ that no
# test binary reaches is neither proven nor pinned. A block counts as
# covered when any binary runs it; the count only falls, and it fails when
# it exceeds the number in verify_uncovered.txt.
awk 'NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
END { for (b in n) if (!hit[b]) { f = b; sub(/:.*/, "", f); per[f] += n[b] }
      for (f in per) print per[f], f }' "$covtmp/cover.out" | sort -k1,1rn -k2 >"$covtmp/uncovered"
rm -f "$covtmp/cover.out"
uncovered="$(awk '{ s += $1 } END { print s + 0 }' "$covtmp/uncovered")"
floor="$(cat verify_uncovered.txt)"
echo "== tier 1: internal statements reached by no test: $uncovered (ratchet: $floor)"
sed 's/^/   /' "$covtmp/uncovered"
rm -rf "$covtmp"
if [ "$uncovered" -gt "$floor" ]; then
    echo "verify: $uncovered uncovered statements, more than the $floor in verify_uncovered.txt; test the new code" >&2
    exit 1
fi
if [ "$uncovered" -lt "$floor" ]; then
    echo "   below the ratchet: lower verify_uncovered.txt to $uncovered"
fi
# The cache-parity suite proves the incremental free-time engine is
# bit-identical to the naive recomputation; run it under the race detector
# so a cache shared across goroutines can never slip in unnoticed.
echo "== tier 1: go test -race (free-time cache parity)"
go test -race -run 'FreeTimeEngine|ExactRho' ./internal/robustness
# The per-ρ tallies are plain fields owned by one event loop; the counters
# pin runs two simulations at once and a server engine, so a tally that
# leaks across goroutines fails here.
echo "== tier 1: go test -race (counter publication pin)"
go test -race -run 'TestGolden(Concurrent|Server)Counters$' .
# The examples are the first programs a reader runs: build and run each
# one (every one finishes in under a second on 2 cores), so an example
# that stops working fails here rather than only compiling.
echo "== tier 1: run examples/*"
extmp="$(mktemp -d)"
go build -o "$extmp" ./examples/...
for ex in "$extmp"/*; do
    "$ex" >/dev/null || {
        echo "verify: example $(basename "$ex") exited non-zero" >&2
        rm -rf "$extmp"
        exit 1
    }
done
rm -rf "$extmp"
# The tracked size number (ROADMAP aim 2): non-test Go lines outside
# benchmark/. A PR that grows it should be able to say what for.
echo "== tier 1: non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -exec cat {} + | wc -l)"
# The road to one cluster executor (ROADMAP item 4). Both engines step
# internal/exec's typed event heap, which boxes nothing; container/heap
# boxes every event into an interface, so no non-test file may import it.
heapfiles="$(grep -rl --include='*.go' --exclude='*_test.go' '"container/heap"' . | wc -l)"
echo "== tier 1: non-test files importing container/heap: $heapfiles"
if [ "$heapfiles" -gt 0 ]; then
    echo "verify: container/heap is back; push and pop events through internal/exec's Heap:" >&2
    grep -rl --include='*.go' --exclude='*_test.go' '"container/heap"' . >&2
    exit 1
fi
# The cluster lifecycle is written once, in internal/exec: a head starts
# and completes, a fault fires and strikes, a core goes down and is
# repaired, a stranded task is retried or lost. Each engine keeps only its
# side effects, behind exec.Hooks. A mechanics method defined again in both
# internal/sim and internal/server, under its old name or its exec name,
# fails tier 1.
dup=0
for m in start complete setPState handleFault handleRepair downCore recoverTask handleRequeue pickUpCore pickAliveNode \
    StartHead CompleteHead FireFault strike Repair Recover FireRequeue; do
    if grep -rq --include='*.go' --exclude='*_test.go' "^func ([^)]*) $m(" internal/sim &&
        grep -rq --include='*.go' --exclude='*_test.go' "^func ([^)]*) $m(" internal/server; then
        echo "verify: $m is defined in both internal/sim and internal/server; write it once, in internal/exec" >&2
        dup=$((dup + 1))
    fi
done
echo "== tier 1: mechanics methods defined in both internal/sim and internal/server: $dup"
if [ "$dup" -gt 0 ]; then
    exit 1
fi
# Static analysis and vulnerability scanning run when the tools are on
# PATH; the container image doesn't ship them and nothing may be
# installed here, so absence is a skip, not a failure.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== tier 1: staticcheck ./..."
    staticcheck ./...
else
    echo "== tier 1: staticcheck not installed — skipping"
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo "== tier 1: govulncheck ./..."
    govulncheck ./...
else
    echo "== tier 1: govulncheck not installed — skipping"
fi

if [ "$tier" -ge 2 ]; then
    echo "== tier 2: go vet ./..."
    go vet ./...
    echo "== tier 2: go test -race ./..."
    go test -race ./...
    # The fault/brownout paths assert bit-level determinism; run them twice
    # under the race detector so a flaky ordering can't slip through a
    # single lucky pass.
    echo "== tier 2: go test -race -count=2 (fault injection)"
    go test -race -count=2 ./internal/fault ./internal/sim ./internal/energy
    # The server fault pins: a stochastic-fault engine fed through
    # Submit/Sync across the engine goroutine, and the scripted durable
    # scenario's WAL and checkpoint bytes. Each digest must hold on every
    # race-enabled pass, not on one lucky interleaving.
    echo "== tier 2: go test -race -count=20 (server fault and durable-bytes pins)"
    go test -race -run 'TestGoldenServerFaults$' -count=20 .
    go test -race -run 'TestGoldenDurableBytes$' -count=20 ./internal/server
    # A Submit racing the end of a drain once waited forever for a reply;
    # many race-enabled drains make that window likely, and the timeout
    # turns a hang into a failure with a goroutine dump.
    echo "== tier 2: go test -race -count=300 (drain never orphans)"
    go test -race -run 'TestDrainNeverOrphans$' -count=300 -timeout 300s ./internal/server
    # Durable-path and clock pins, race-enabled and repeated: streamed
    # recovery (torn tail, mid-suffix corruption, a cut past the records,
    # bit-identity), one fsync per acknowledged batch, the memoised model
    # fingerprint, and a loop turn that an admission wins disarming its
    # timer.
    echo "== tier 2: go test -race -count=20 (recovery, WAL, model hash, clock waiters)"
    go test -race -run 'TestRecover|TestWAL|TestModelHash|WaitUntil' -count=20 ./internal/server ./internal/workload
    # The mutation and reuse property tests again, with a 20x step budget:
    # long randomized enqueue/start/complete/requeue sequences, with a
    # clock that also steps back and lands on head impulses, against the
    # free-time engine, bit-compared to the uncached Grid* reference.
    echo "== tier 2: go test (free-time properties, 10k steps)"
    FREETIME_PROP_STEPS=10000 go test -run 'FreeTimeEngine(GridMatchesNaive|ReuseMatchesNaive)' -count=1 ./internal/robustness
    # Grid quantization contract, race-enabled with a raised trial budget:
    # random operand chains must keep the lattice CDF inside the exact
    # chain's q·step/2 bracket, and the engine must stay bit-identical to
    # naive grid recomputation under long mutation runs.
    echo "== tier 2: go test -race (grid-vs-exact parity, 2k trials)"
    GRID_PROP_STEPS=2000 go test -race -run GridConvolveMatchesExact -count=1 ./internal/pmf
    FREETIME_PROP_STEPS=2000 go test -race -run 'FreeTimeEngineGrid|GridRhoParity' -count=1 ./internal/robustness
    # Resume equivalence: interrupted sweeps replayed from the journal must
    # be bit-identical to uninterrupted runs, on every pass.
    echo "== tier 2: go test -run Resume -count=2 (journal resume)"
    go test -run Resume -count=2 ./internal/experiment
    # Fuzz the external input surfaces (PMF JSON loader, -faults parser)
    # briefly; regressions found here land as crash corpus entries.
    echo "== tier 2: go fuzz (pmf FromJSON, 10s)"
    go test -fuzz=FuzzPMFFromJSON -fuzztime=10s ./internal/pmf
    echo "== tier 2: go fuzz (fault ParseSpec, 10s)"
    go test -fuzz=FuzzFaultParseSpec -fuzztime=10s ./internal/fault
    echo "== tier 2: go fuzz (server DecodeTask, 10s)"
    go test -fuzz=FuzzServerDecodeTask -fuzztime=10s ./internal/server
    echo "== tier 2: go fuzz (trace Decode, 10s)"
    go test -fuzz=FuzzTraceDecode -fuzztime=10s ./internal/trace
    echo "== tier 2: go fuzz (workload TenantSpec, 10s)"
    go test -fuzz=FuzzTenantSpec -fuzztime=10s ./internal/workload
    # Flight-recorder gate: record one run, replay it from the trace alone,
    # and require the replayed file to be byte-identical to the record —
    # cmp, not a field comparison, so nothing can hide in encoding drift.
    echo "== tier 2: flight trace record/replay bit-identity"
    flighttmp="$(mktemp -d)"
    csrv=""
    cld=""
    trap 'kill $csrv $cld 2>/dev/null || true; rm -rf "$flighttmp"' EXIT
    go build -o "$flighttmp" ./cmd/ecsim ./cmd/ecreplay
    "$flighttmp/ecsim" -heuristic LL -filters en+rob -trials 1 -window 200 \
        -trace-out "$flighttmp/flight.jsonl" >/dev/null
    "$flighttmp/ecreplay" -out "$flighttmp/replayed.jsonl" "$flighttmp/flight.jsonl" >/dev/null
    cmp "$flighttmp/flight.jsonl" "$flighttmp/replayed.jsonl"
    echo "   record and replay are byte-identical"
    # Crash-recovery gate: SIGKILL a durable ecserve mid-burst, then recover
    # the orphaned WAL + checkpoint twice (-recover -drain-now) on separate
    # copies. Both runs must exit 0 (zero orphans, balanced accounting) and
    # their flight traces must be byte-identical — recovery is a function of
    # the durable state alone, with no wall-clock or ordering leakage. Only
    # the metrics-snapshot line is excluded from the comparison: it holds
    # wall-latency histograms, which are real time, not recovered state.
    echo "== tier 2: kill-9 crash recovery determinism"
    go build -o "$flighttmp" ./cmd/ecserve ./cmd/ecload
    chaos="$flighttmp/chaos"
    mkdir -p "$chaos/a" "$chaos/b"
    CHAOS_FLAGS='-scale 2000 -budget 3 -faults mtbf=2000,repair=300,recovery=requeue,retries=2,backoff=60'
    csrv=""
    "$flighttmp/ecserve" -addr 127.0.0.1:0 $CHAOS_FLAGS \
        -wal "$chaos/wal" -checkpoint-every 300ms >"$chaos/ecserve.log" 2>&1 &
    csrv=$!
    wait_addr "$chaos/ecserve.log" "$csrv"
    "$flighttmp/ecload" -addr "$addr" -n 1500 -mult 2 -seed 3 -q >"$chaos/ecload.log" 2>&1 &
    cld=$!
    i=0
    while :; do
        lines="$(wc -l <"$chaos/wal.1" 2>/dev/null || echo 0)"
        [ "$lines" -ge 200 ] && break
        i=$((i + 1))
        [ "$i" -ge 150 ] || kill -0 "$cld" 2>/dev/null || {
            echo "chaos: burst ended before the kill threshold" >&2
            exit 1
        }
        [ "$i" -ge 150 ] && { echo "chaos: WAL never reached kill threshold" >&2; exit 1; }
        sleep 0.1
    done
    kill -9 "$csrv" 2>/dev/null
    wait "$csrv" 2>/dev/null || true
    csrv=""
    kill "$cld" 2>/dev/null || true
    wait "$cld" 2>/dev/null || true # transport errors after the kill are the point
    for side in a b; do
        cp "$chaos/wal.1" "$chaos/$side/wal.1"
        [ -e "$chaos/wal.ckpt" ] && cp "$chaos/wal.ckpt" "$chaos/$side/ckpt"
        "$flighttmp/ecserve" $CHAOS_FLAGS -wal "$chaos/$side/wal" -checkpoint "$chaos/$side/ckpt" \
            -recover -drain-now -flight "$chaos/$side/flight.jsonl" \
            -report "$chaos/$side/report.json" >"$chaos/$side/out.log" 2>&1 || {
            echo "chaos: recovery drain $side failed (orphans or imbalance):" >&2
            cat "$chaos/$side/out.log" >&2
            exit 1
        }
        grep -v '^{"m":' "$chaos/$side/flight.jsonl" >"$chaos/$side/flight.cmp"
    done
    cmp "$chaos/a/flight.cmp" "$chaos/b/flight.cmp"
    echo "   $lines WAL lines at SIGKILL; both recoveries drained clean, flight traces byte-identical"
    # shards=1 identity gate: the same orphaned WAL recovered through a
    # one-shard router must produce a flight trace byte-identical to the
    # single-engine recovery above — the router tier at n=1 is the identity,
    # not an approximation. Metric-snapshot lines are excluded as before
    # (the router adds router_* instruments to the shared registry).
    echo "== tier 2: shards=1 router identity (same WAL, byte-identical trace)"
    mkdir -p "$chaos/c"
    cp "$chaos/wal.1" "$chaos/c/wal.1"
    [ -e "$chaos/wal.ckpt" ] && cp "$chaos/wal.ckpt" "$chaos/c/ckpt"
    "$flighttmp/ecserve" $CHAOS_FLAGS -shards 1 -wal "$chaos/c/wal" -checkpoint "$chaos/c/ckpt" \
        -recover -drain-now -flight "$chaos/c/flight.jsonl" \
        -report "$chaos/c/report.json" >"$chaos/c/out.log" 2>&1 || {
        echo "chaos: one-shard recovery drain failed (orphans or imbalance):" >&2
        cat "$chaos/c/out.log" >&2
        exit 1
    }
    grep -v '^{"m":' "$chaos/c/flight.jsonl" >"$chaos/c/flight.cmp"
    cmp "$chaos/a/flight.cmp" "$chaos/c/flight.cmp"
    echo "   one-shard router recovery is byte-identical to the single engine"
    # Sharded recovery determinism gate: a three-shard durable server is
    # SIGKILLed mid-burst, then its per-shard WALs are recovered and drained
    # deterministically twice on separate copies. Every shard's flight trace
    # must be byte-identical across the two replays — multi-shard recovery
    # is a function of the durable state alone, with the cross-shard drain
    # interleaving fixed by the shared virtual axis.
    echo "== tier 2: 3-shard kill-9 recovery determinism"
    sharded="$flighttmp/sharded"
    mkdir -p "$sharded/a" "$sharded/b"
    SHARD_FLAGS='-scale 2000 -budget 3 -shards 3'
    "$flighttmp/ecserve" -addr 127.0.0.1:0 $SHARD_FLAGS \
        -wal "$sharded/wal" -checkpoint-every 300ms >"$sharded/ecserve.log" 2>&1 &
    csrv=$!
    wait_addr "$sharded/ecserve.log" "$csrv"
    "$flighttmp/ecload" -addr "$addr" -n 1500 -mult 2 -seed 5 -q >"$sharded/ecload.log" 2>&1 &
    cld=$!
    i=0
    while :; do
        lines="$(cat "$sharded"/wal.s*.1 2>/dev/null | wc -l || echo 0)"
        [ "$lines" -ge 200 ] && break
        i=$((i + 1))
        [ "$i" -ge 150 ] || kill -0 "$cld" 2>/dev/null || {
            echo "sharded: burst ended before the kill threshold" >&2
            exit 1
        }
        [ "$i" -ge 150 ] && { echo "sharded: WALs never reached kill threshold" >&2; exit 1; }
        sleep 0.1
    done
    kill -9 "$csrv" 2>/dev/null
    wait "$csrv" 2>/dev/null || true
    csrv=""
    kill "$cld" 2>/dev/null || true
    wait "$cld" 2>/dev/null || true
    for side in a b; do
        for s in 0 1 2; do
            cp "$sharded/wal.s$s.1" "$sharded/$side/wal.s$s.1"
            [ -e "$sharded/wal.ckpt.s$s" ] && cp "$sharded/wal.ckpt.s$s" "$sharded/$side/ckpt.s$s" || true
        done
        "$flighttmp/ecserve" $SHARD_FLAGS -wal "$sharded/$side/wal" -checkpoint "$sharded/$side/ckpt" \
            -recover -drain-now -flight "$sharded/$side/flight.jsonl" \
            -report "$sharded/$side/report.json" >"$sharded/$side/out.log" 2>&1 || {
            echo "sharded: recovery drain $side failed (orphans or imbalance):" >&2
            cat "$sharded/$side/out.log" >&2
            exit 1
        }
    done
    for s in 0 1 2; do
        grep -v '^{"m":' "$sharded/a/flight.jsonl.s$s" >"$sharded/a/flight.s$s.cmp"
        grep -v '^{"m":' "$sharded/b/flight.jsonl.s$s" >"$sharded/b/flight.s$s.cmp"
        cmp "$sharded/a/flight.s$s.cmp" "$sharded/b/flight.s$s.cmp"
    done
    echo "   $lines WAL lines at SIGKILL; 3-shard recovery replayed twice, all per-shard traces byte-identical"
    # End-to-end soak: race-built ecserve under bursty 2x overload with
    # fault injection, then a SIGTERM drain that must orphan nothing,
    # followed by the kill-9 chaos stage (SIGKILL mid-burst, -recover,
    # monotone energy across the crash).
    echo "== tier 2: soak (ecserve + ecload, race-instrumented)"
    ./soak.sh
fi

echo "verify: OK (tier $tier)"
