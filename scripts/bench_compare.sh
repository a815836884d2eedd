#!/usr/bin/env bash
# Compare two BENCH_*.json files (as written by scripts/bench.sh) and fail
# on ns/op regressions beyond a tolerance. This is the CI gate that turns
# the repository's speedup claims into an enforced invariant instead of
# prose: any paper-listing, Table I, figure, or reasoner benchmark that
# gets slower than the committed trajectory point by more than the
# tolerance breaks the build.
#
# Usage:
#   scripts/bench_compare.sh OLD.json NEW.json [--tolerance PCT] [--filter REGEX]
#
#   OLD.json      committed trajectory point (e.g. the latest BENCH_N.json)
#   NEW.json      freshly recorded run to judge (e.g. BENCH_ci.json)
#   --tolerance   max allowed ns/op increase in percent (default 15)
#   --filter      benchmarks the gate applies to (default: the paper
#                 artifact suite, the reasoner ablations, the store's
#                 bitset/dense-pattern suite, the durability boot and
#                 write paths, and the CONSTRUCT/SELECT result writers —
#                 the noisier micro/scale benchmarks are reported but not
#                 gated)
#
# Only the "benchmarks" array of each file is read (BENCH_*.json files may
# carry extra hand-written arrays such as baseline_seed). Benchmarks
# present in just one file are reported as added/removed, never failed:
# the gate judges regressions, not suite membership.
set -euo pipefail

tolerance=15
filter='^Benchmark(Listing|Table1|Figure|Reasoner|Bitset|StoreMatch|MaterializeSolutions|MaterializeDelta|ExplainWarm|PlanCache|SnapshotLoad|TurtleBoot|WALAppend|SnapshotPin|ReadUnderWrite|ConstructTurtle|StreamWriters)'

args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --tolerance) tolerance="$2"; shift 2 ;;
        --tolerance=*) tolerance="${1#*=}"; shift ;;
        --filter) filter="$2"; shift 2 ;;
        --filter=*) filter="${1#*=}"; shift ;;
        -h|--help) sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) args+=("$1"); shift ;;
    esac
done
if [ "${#args[@]}" -ne 2 ]; then
    echo "usage: $0 OLD.json NEW.json [--tolerance PCT] [--filter REGEX]" >&2
    exit 2
fi
old="${args[0]}"
new="${args[1]}"
for f in "$old" "$new"; do
    [ -r "$f" ] || { echo "bench_compare: cannot read $f" >&2; exit 2; }
done

# extract NAME NS_OP pairs from the "benchmarks" array of a bench.sh file.
# Handles both the compact one-object-per-line layout bench.sh emits and
# pretty-printed files with one key per line.
extract() {
    awk '
    /"benchmarks"[[:space:]]*:/ { inb = 1; next }
    inb && /^[[:space:]]*\]/    { inb = 0 }
    inb {
        if (match($0, /"name":[[:space:]]*"[^"]*"/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*"name":[[:space:]]*"/, "", name); sub(/"$/, "", name)
        }
        if (match($0, /"ns_op":[[:space:]]*[0-9.eE+]+/)) {
            ns = substr($0, RSTART, RLENGTH)
            sub(/.*:[[:space:]]*/, "", ns)
            if (name != "") { print name, ns; name = "" }
        }
    }' "$1"
}

oldtab="$(mktemp)"; newtab="$(mktemp)"
trap 'rm -f "$oldtab" "$newtab"' EXIT
extract "$old" > "$oldtab"
extract "$new" > "$newtab"
[ -s "$oldtab" ] || { echo "bench_compare: no benchmarks found in $old" >&2; exit 2; }
[ -s "$newtab" ] || { echo "bench_compare: no benchmarks found in $new" >&2; exit 2; }

awk -v tol="$tolerance" -v filter="$filter" -v oldfile="$old" -v newfile="$new" '
NR == FNR { old[$1] = $2; next }
{
    name = $1; ns = $2; seen[name] = 1
    if (!(name in old)) { added++; printf "  new      %-60s %12.0f ns/op (no baseline)\n", name, ns; next }
    pct = (ns - old[name]) / old[name] * 100
    gated = (name ~ filter)
    status = "ok"
    if (pct > tol) status = gated ? "FAIL" : "slower"
    if (status == "FAIL") { fails++ }
    printf "  %-8s %-60s %12.0f -> %12.0f ns/op  %+7.1f%%%s\n", \
        status, name, old[name], ns, pct, gated ? "" : "  [ungated]"
}
END {
    for (name in old) if (!(name in seen)) { removed++ }
    if (removed) printf "  (%d benchmark(s) in %s missing from %s)\n", removed, oldfile, newfile
    printf "\nbench_compare: tolerance %s%%, gate /%s/\n", tol, filter
    if (fails) { printf "bench_compare: FAIL — %d gated benchmark(s) regressed beyond %s%%\n", fails, tol; exit 1 }
    print "bench_compare: OK — no gated regression"
}' "$oldtab" "$newtab"
