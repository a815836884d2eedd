#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark (BENCHMARK.json): this
# checkout against a parent revision, run alternately in one session.
#
# Usage:
#   scripts/bench_ab.sh [--parent REV] [--seeds "1 2 ..."] [--workload W] [--out DIR]
#
#   --parent    the revision to compare against (default HEAD~1); it is
#               checked out with `git worktree add` under DIR and removed
#               again on exit
#   --seeds     the workload seeds, one pair of runs each (default 1..10)
#   --workload  run one workload instead of all four
#   --out       where worktree, logs and result files go
#               (default .bench_build/ab, which git ignores)
#
# The change is this checkout as it stands, committed or not. Both trees
# are built first. Then each seed runs `bench/run.sh --seed N` on both
# sides, the parent first on odd pairs and the change first on even ones,
# and keeps each side's result files under DIR/<side>/. At the end it
# prints, per workload and end-to-end metric, each side's median and
# quartiles over the seeds, the pairs the change won (ties count for
# neither), and a verdict against the metric's BENCHMARK.json bound:
#
#   gain        the change won at least 9 in 10 pairs and its median beats
#               the parent's by more than the parent's interquartile range
#   no worse    the change's median is within the bound of the parent's
#   unresolved  outside the bound, but a side's interquartile range is
#               wider than the bound, so the runs cannot tell
#   worse       outside the bound with both spreads inside it
#
# and, per workload and side, the failed-op counts and the
# harness.oracle_checked and durable.compactions values seen. Needs git,
# go and jq; all four workloads take about 3.5 minutes per pair.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"

parent=HEAD~1
seeds="1 2 3 4 5 6 7 8 9 10"
workload=""
out="$root/.bench_build/ab"
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        -h|--help) sed -n '2,33p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "bench_ab: unknown argument $1 (see --help)" >&2; exit 2 ;;
    esac
done

mkdir -p "$out"
out="$(cd "$out" && pwd)"
tree_parent="$out/parent-tree"
rm -rf "$out/parent" "$out/change"
mkdir -p "$out/parent" "$out/change"
git worktree remove --force "$tree_parent" 2>/dev/null || true
rm -rf "$tree_parent"
git worktree prune
git worktree add --detach "$tree_parent" "$parent" >&2
trap 'git -C "$root" worktree remove --force "$tree_parent" || true' EXIT

tree() { if [ "$1" = parent ]; then echo "$tree_parent"; else echo "$root"; fi; }

# run SIDE SEED: one benchmark run, its log and result files kept.
run() {
    local side="$1" seed="$2" t
    t="$(tree "$side")"
    echo "bench_ab: seed $seed, $side ($(git -C "$t" describe --always --dirty))" >&2
    rm -f "$t"/.bench_build/results/*-seed"$seed"-trace0.json
    bash "$t/bench/run.sh" --seed "$seed" ${workload:+--workload "$workload"} \
        >"$out/$side/seed$seed.log" 2>&1 || echo "bench_ab: $side seed $seed exited non-zero" >&2
    cp "$t"/.bench_build/results/*-seed"$seed"-trace0.json "$out/$side/"
}

# Build both trees (run.sh builds, feobench -h exits at once).
for side in parent change; do
    bash "$(tree "$side")/bench/run.sh" -h >/dev/null 2>&1 || true
done

pair=0
for seed in $seeds; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$seed"; run change "$seed"
    else
        run change "$seed"; run parent "$seed"
    fi
done

# One row per side, workload, seed and value: the end-to-end metrics
# plus the run's failed count and its oracle and compaction counters.
for side in parent change; do
    for f in "$out/$side"/*-trace0.json; do
        jq -r --arg side "$side" '
            .workload as $w | .seed as $s |
            ((.metrics | to_entries[] | [$side, $w, $s, .key, .value.value]),
             [$side, $w, $s, "failed", .failed],
             [$side, $w, $s, "harness.oracle_checked", .all_metrics["harness.oracle_checked"]],
             [$side, $w, $s, "durable.compactions", .all_metrics["durable.compactions"]])
            | @tsv' "$f"
    done
done >"$out/values.tsv"
jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' BENCHMARK.json >"$out/bounds.tsv"

awk -F'\t' '
function sortv(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
# q-quantile of the sorted a[1..n], linear between neighbours.
function quant(a, n, q,    h, lo) {
    h = 1 + (n - 1) * q; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function stats(side, w, m,    k, n, a, p) {
    n = 0
    for (k in val) {
        split(k, p, SUBSEP)
        if (p[1] == side && p[2] == w && p[4] == m) a[++n] = val[k]
    }
    sortv(a, n)
    S["n"] = n; S["q1"] = quant(a, n, .25); S["med"] = quant(a, n, .5); S["q3"] = quant(a, n, .75)
    S["min"] = a[1]; S["max"] = a[n]
}
FNR == NR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
{
    val[$1, $2, $3, $4] = $5
    if (!($2 in seenw)) { seenw[$2] = 1; works[++nw] = $2 }
    seeds[$2, $3] = 1
    if ($4 == "failed" || $4 == "harness.oracle_checked" || $4 == "durable.compactions") {
        k = $1 SUBSEP $2 SUBSEP $4
        if (index(" " checks[k] " ", " " $5 " ") == 0) checks[k] = checks[k] (checks[k] == "" ? "" : " ") $5
    }
}
END {
    printf "%-15s %-22s %28s %28s %6s  %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict"
    for (i = 1; i <= nw; i++) {
        w = works[i]
        for (j = 1; j <= nm; j++) {
            m = order[j]; lower = better[m] == "lower"
            stats("parent", w, m); pn = S["n"]; p1 = S["q1"]; pm = S["med"]; p3 = S["q3"]; pmin = S["min"]; pmax = S["max"]
            stats("change", w, m); c1 = S["q1"]; cm = S["med"]; c3 = S["q3"]; cmin = S["min"]; cmax = S["max"]
            if (pn == 0) continue
            won = 0; pairs = 0
            for (k in seeds) {
                split(k, p, SUBSEP)
                if (p[1] != w || !(("parent", w, p[2], m) in val) || !(("change", w, p[2], m) in val)) continue
                pv = val["parent", w, p[2], m]; cv = val["change", w, p[2], m]; pairs++
                if ((lower && cv < pv) || (!lower && cv > pv)) won++
            }
            gainby = lower ? pm - cm : cm - pm
            worse = pm == 0 ? 0 : (lower ? cm - pm : pm - cm) / (pm < 0 ? -pm : pm)
            spread = pm == 0 ? 0 : ((p3 - p1) > (c3 - c1) ? p3 - p1 : c3 - c1) / (pm < 0 ? -pm : pm)
            if (won >= 0.9 * pairs && gainby > p3 - p1) verdict = "gain"
            else if (worse <= bound[m] + 0) verdict = "no worse"
            else if ((lower && cmax < pmin) || (!lower && cmin > pmax)) verdict = "no worse"
            else if (spread > bound[m] + 0) verdict = "unresolved"
            else verdict = "worse"
            printf "%-15s %-22s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %3d/%-2d  %s (bound %s)\n", w, m, p1, pm, p3, c1, cm, c3, won, pairs, verdict, bound[m]
        }
        for (s = 0; s < 2; s++) {
            side = s ? "change" : "parent"
            printf "%-15s %-6s failed {%s}  harness.oracle_checked {%s}  durable.compactions {%s}\n", w, side,
                checks[side, w, "failed"], checks[side, w, "harness.oracle_checked"], checks[side, w, "durable.compactions"]
        }
    }
}' "$out/bounds.tsv" "$out/values.tsv" | tee "$out/summary.txt"
