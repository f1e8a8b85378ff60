#!/bin/sh
# Run the study and hot-path benchmarks with allocation reporting and write
# the parsed results as BENCH_<date>.json (plus the raw text next to it).
# Narrow the set with a pattern argument:
#   ./bench.sh                    # everything
#   ./bench.sh 'Trial|Decision'   # the mapping hot path only
#
# Profiling: BENCH_PROFILE=1 captures CPU and heap profiles next to the
# baseline (<stem>.<pkg>.cpu.pprof / .mem.pprof). go test refuses profile
# flags with multiple packages, so profiling runs each package separately;
# timings land in the same raw file either way.
#
# Regression gate: BENCH_GATE is a regex naming benchmarks that must not
# regress; any gated benchmark whose ns/op grows more than BENCH_THRESHOLD
# percent (default 10) over the most recent committed baseline fails the
# run loudly with exit 1:
#   BENCH_GATE='Trial/LL_en_rob$|ServeAdmit' BENCH_THRESHOLD=15 ./bench.sh
# A gated row also fails on its deterministic counters, which host noise
# cannot move: allocs/op and gridconv/trial must equal the baseline's, and
# conv/trial must be 0 on every BenchmarkTrial row — a sparse convolution
# creeping back into a production trial fails here instead of hiding in
# ns/op jitter. An intended change to them lands with a fresh baseline.
set -eu
cd "$(dirname "$0")"

pattern="${1:-.}"
gate="${BENCH_GATE:-}"
threshold="${BENCH_THRESHOLD:-10}"
case "$threshold" in
'' | *[!0-9.]*)
    echo "bench: BENCH_THRESHOLD must be a number (percent), got '$threshold'" >&2
    exit 2
    ;;
esac
date="$(date +%Y-%m-%d)"
# Never clobber an earlier run from the same day: suffix _1, _2, ... until
# the name is free. The suffixed runs stay in chronological order for the
# baseline pick below.
stem="BENCH_${date}"
if [ -e "${stem}.json" ] || [ -e "${stem}.txt" ]; then
    n=1
    for f in "BENCH_${date}"_*.json "BENCH_${date}"_*.txt; do
        [ -e "$f" ] || continue
        s="${f##*_}"
        s="${s%.*}"
        case "$s" in '' | *[!0-9]*) continue ;; esac
        [ "$s" -ge "$n" ] && n=$((s + 1))
    done
    stem="BENCH_${date}_${n}"
fi
raw="${stem}.txt"
out="${stem}.json"

# The root package holds the study and hot-path benches;
# internal/server adds the durability ones (WAL append/commit, recovery).
if [ -n "${BENCH_PROFILE:-}" ]; then
    : > "$raw"
    for pkg in . ./internal/server; do
        tag="$(basename "$(cd "$pkg" && pwd)")"
        [ "$pkg" = "." ] && tag="root"
        go test -run '^$' -bench "$pattern" -benchmem \
            -cpuprofile "${stem}.${tag}.cpu.pprof" \
            -memprofile "${stem}.${tag}.mem.pprof" \
            "$pkg" | tee -a "$raw"
        # go test leaves the compiled test binary behind when profiling;
        # pprof reads Go CPU/heap profiles without it, so drop it.
        rm -f "$(basename "$(cd "$pkg" && pwd)").test" repro.test
    done
    echo "profiles: ${stem}.*.{cpu,mem}.pprof (inspect with 'go tool pprof')"
else
    go test -run '^$' -bench "$pattern" -benchmem . ./internal/server | tee "$raw"
fi

# Parse "BenchmarkName-N  iters  X ns/op  Y B/op  Z allocs/op  [W unit]..."
# into a JSON array; custom metrics (e.g. gridconv/trial) ride along.
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    line = sprintf("  {\"name\": \"%s\", \"iterations\": %s", name, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        line = line sprintf(", \"%s\": %s", unit, $i)
    }
    line = line "}"
    if (!first) print ","
    printf "%s", line
    first = 0
}
END { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"

# Compare against the most recent prior baseline, if any. Sort by date
# field then NUMERIC same-day suffix: plain lexicographic order would put
# BENCH_<date>_10 before BENCH_<date>_2 and pick the wrong "latest".
prev=""
for f in $(printf '%s\n' BENCH_*.json | sed 's/\.json$//' | sort -t_ -k2,2 -k3,3n | sed 's/$/.json/'); do
    [ -e "$f" ] || continue
    [ "$f" = "$out" ] && continue
    prev="$f"
done
if [ -n "$prev" ]; then
    echo
    echo "delta vs $prev:"
    awk -v prevfile="$prev" -v gate="$gate" -v thresh="$threshold" '
    function grab(line, key,   m) {
        if (match(line, "\"" key "\": [0-9.eE+-]+")) {
            m = substr(line, RSTART, RLENGTH)
            sub(/^.*: /, "", m)
            return m
        }
        return ""
    }
    match($0, /"name": "[^"]+"/) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        ns = grab($0, "ns_per_op")
        al = grab($0, "allocs_per_op")
        gc = grab($0, "gridconv_per_trial")
        cv = grab($0, "conv_per_trial")
        if (FILENAME == prevfile) { pns[name] = ns; pal[name] = al; pgc[name] = gc; next }
        if (gate != "" && name ~ gate) gated[name] = 1
        if ((name in gated) && name ~ /^BenchmarkTrial\// && cv != "" && cv + 0 != 0) {
            nbad++
            bad[nbad] = sprintf("%s: %s sparse conv/trial on a production trial (must be 0)", name, cv)
        }
        if (!(name in pns)) next
        dns = "n/a"; dal = "n/a"; pct = 0
        if (ns != "" && pns[name] + 0 > 0) {
            pct = 100 * (ns - pns[name]) / pns[name]
            dns = sprintf("%+.1f%%", pct)
        }
        if (al != "" && pal[name] != "")
            dal = sprintf("%+d", al - pal[name])
        printf "  %-44s %14s ns/op (%s)  %8s allocs/op (%s)\n", name, ns, dns, al, dal
        if ((name in gated) && pct > thresh + 0) {
            nbad++
            bad[nbad] = sprintf("%s: %s -> %s ns/op (%+.1f%% > %s%% threshold)",
                                name, pns[name], ns, pct, thresh)
        }
        if ((name in gated) && al != "" && pal[name] != "" && al + 0 != pal[name] + 0) {
            nbad++
            bad[nbad] = sprintf("%s: %s -> %s allocs/op (deterministic; must equal the baseline)",
                                name, pal[name], al)
        }
        if ((name in gated) && gc != "" && pgc[name] != "" && gc + 0 != pgc[name] + 0) {
            nbad++
            bad[nbad] = sprintf("%s: %s -> %s gridconv/trial (deterministic; must equal the baseline)",
                                name, pgc[name], gc)
        }
        delete gated[name]
    }
    END {
        # Gated benchmarks with no baseline entry cannot be compared; say so
        # rather than silently passing a gate that never fired.
        for (name in gated)
            printf "  warning: gated benchmark %s missing from baseline — not compared\n", name
        if (nbad) {
            printf "\nBENCH GATE FAILED (%d regression(s) vs %s):\n", nbad, prevfile
            for (i = 1; i <= nbad; i++) printf "  !! %s\n", bad[i]
            exit 1
        }
    }
    ' "$prev" "$out" || {
        echo "bench: gated regression detected — see the report above" >&2
        exit 1
    }
elif [ -n "$gate" ]; then
    echo "bench: BENCH_GATE set but no prior baseline to compare against" >&2
    exit 1
fi
