#!/usr/bin/env bash
# Paired benchmark comparison of a parent commit against the working tree:
# benchmark/README.md "Comparing two commits", rules 2-4, in one command.
#
# The parent is checked out into a git worktree under .bench_build/ (git
# ignored; removed again on exit) and the change is the working tree. Each
# side runs BENCHMARK.json's command from its own root, so each builds
# into its own benchmark/target. Pairs alternate (parent first in even
# pairs, change first in odd ones), same seed within a pair, --trace 0,
# and each run's last stdout line is its JSON result. The runs are kept
# in .bench_build/pairs.jsonl.
#
# Per (end-to-end metric, workload) it prints each side's median and
# inter-quartile range, the pairs the change won (ties count for
# neither) and the verdict:
#   win          wins >= 90 % of the pairs and the medians differ, in the
#                better direction, by more than the parent's IQR (rule 3);
#   unresolved   otherwise, when either side's IQR / median exceeds the
#                metric's bound (rule 4);
#   worse        otherwise, when the change's median is worse than the
#                parent's by more than the bound;
#   not worse    otherwise.
# The last line of that table says whether the exact (X) metrics repeated
# bit for bit across every run of both sides.
#
# With --trace-runs N (default 0: none) it then makes N alternating
# --trace 1 runs per side of each workload, kept in .bench_build/traces.jsonl,
# and prints per (per-layer metric of BENCHMARK.json, workload) each side's
# median and change / parent: the layer evidence benchmark/README.md rule
# 5 asks a gain for.
#
# Needs bash, git, jq and cargo; runs offline.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> [--pairs N] [--seconds S] [--seed N] [--workload W]... [--trace-runs N]"
}

root=$(git rev-parse --show-toplevel)
cd "$root"
spec=$root/BENCHMARK.json

defs='
  def quantile($q): sort as $s | ((($s | length) - 1) * $q) as $h | ($h | floor) as $i
    | if $i + 1 < ($s | length) then $s[$i] + ($h - $i) * ($s[$i + 1] - $s[$i]) else $s[$i] end;
  def median: quantile(0.5);
  def iqr: quantile(0.75) - quantile(0.25);
  def rel($x; $m): if $m == 0 then (if $x == 0 then 0 else infinite end) else ($x / ($m | fabs)) end;
  def fmt: if fabs >= 1000 then (. * 10 | round / 10) else (. * 10000 | round / 10000) end | tostring;
  def pad($n): if length < $n then . + " " * ($n - length) else . + " " end;
'

report() { # runs.jsonl
    jq -rn --slurpfile spec "$spec" --slurpfile runs "$1" "$defs"'
  def row: [(.[0] | pad(22)), (.[1] | pad(15)), (.[2] | pad(26)), (.[3] | pad(26)), (.[4] | pad(7)), .[5]] | add;
  ["completed_frac", "served_accuracy", "v_sla_met_frac", "v_lat_p99_us"] as $exact
  | $runs as $r
  | [$spec[0].workloads[].name as $w | $r | map(select(.workload == $w)) | select(length > 0)
     | sort_by(.pair) as $rw
     | $spec[0].end_to_end[] as $m
     | ($rw | map(select(.side == "parent")) | map(.metrics[$m.name])) as $p
     | ($rw | map(select(.side == "change")) | map(.metrics[$m.name])) as $c
     | (if $m.better == "higher" then 1 else -1 end) as $dir
     | ([range(0; $p | length) | select(($c[.] - $p[.]) * $dir > 0)] | length) as $wins
     | ($p | median) as $pm | ($c | median) as $cm
     | (($cm - $pm) * $dir) as $gain
     | ([rel($p | iqr; $pm), rel($c | iqr; $cm)] | max) as $spread
     | {metric: $m.name, workload: $w, pm: $pm, pi: ($p | iqr), cm: $cm, ci: ($c | iqr),
        wins: $wins, n: ($p | length),
        exact: (($exact | index($m.name)) != null),
        identical: (($p + $c | unique | length) == 1),
        verdict: (if $wins * 10 >= 9 * ($p | length) and $gain > ($p | iqr) then "win"
                  elif $spread > $m.bound then "unresolved"
                  elif -$gain > $m.bound * ($pm | fabs) then "worse"
                  else "not worse" end)}] as $rows
  | (["metric", "workload", "parent median [IQR]", "change median [IQR]", "wins", "verdict"] | row),
    ($rows[] | [.metric, .workload, "\(.pm | fmt) [\(.pi | fmt)]", "\(.cm | fmt) [\(.ci | fmt)]",
                "\(.wins)/\(.n)", .verdict] | row),
    "",
    ($r | group_by(.side)[] | "\(.[0].side): \(map(.failed) | add) of \(map(.attempted) | add) queries failed, correct in \(map(select(.correct)) | length) of \(length) runs"),
    ($rows | group_by(.verdict) | map("\(length) \(.[0].verdict)") | "verdicts: " + join(", ")),
    "X metrics bit-identical: \(if all($rows[] | select(.exact); .identical) then "yes" else "no" end)"
'
}

layers() { # traces.jsonl
    jq -rn --slurpfile spec "$spec" --slurpfile runs "$1" "$defs"'
  def row: [(.[0] | pad(44)), (.[1] | pad(15)), (.[2] | pad(14)), (.[3] | pad(14)), .[4]] | add;
  (["per-layer metric", "workload", "parent median", "change median", "change / parent"] | row),
  ($spec[0].workloads[].name as $w | $runs | map(select(.workload == $w)) | select(length > 0)
   | . as $rw | $spec[0].per_layer[] | .name as $m
   | ($rw | map(select(.side == "parent")) | map(.metrics[$m]) | map(select(. != null))) as $p
   | ($rw | map(select(.side == "change")) | map(.metrics[$m]) | map(select(. != null))) as $c
   | select(($p | length) > 0 and ($c | length) > 0)
   | ($p | median) as $pm | ($c | median) as $cm
   | [$m, $w, ($pm | fmt), ($cm | fmt), (if $pm == 0 then "-" else ($cm / $pm | fmt) end)] | row)
'
}

parent="" pairs=10 seconds=10 seed=42 workloads=() trace_runs=0
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs=$2; shift 2 ;;
        --trace-runs) trace_runs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        -h | --help) usage; exit 0 ;;
        -*) usage >&2; exit 2 ;;
        *) [ -z "$parent" ] || { usage >&2; exit 2; }; parent=$1; shift ;;
    esac
done
[ -n "$parent" ] || { usage >&2; exit 2; }

rev=$(git rev-parse --verify "$parent^{commit}")
mapfile -t cmd < <(jq -r '.command[]' "$spec")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
# The command's build half: `cargo run ... --` becomes `cargo build ...`.
build=()
for a in "${cmd[@]}"; do
    [ "$a" = "--" ] && break
    [ "$a" = run ] && a=build
    build+=("$a")
done

out=$root/.bench_build
tree=$out/parent
runs=$out/pairs.jsonl
traces=$out/traces.jsonl
log=$out/pairs.log
mkdir -p "$out"
: >"$runs"
: >"$log"
cleanup() { git -C "$root" worktree remove --force "$tree" 2>/dev/null || true; }
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
git worktree prune
git worktree add --detach "$tree" "$rev" >>"$log" 2>&1

echo "parent $rev  vs  working tree at $(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' (with uncommitted changes)')"
echo "pairs $pairs, --seconds $seconds, --seed $seed, workloads: ${workloads[*]}"
for dir in "$tree" "$root"; do
    echo "building $dir" >&2
    (cd "$dir" && "${build[@]}") >>"$log" 2>&1 || { echo "build failed in $dir, see $log" >&2; exit 1; }
done

run() { # side dir workload pair trace out.jsonl
    local line
    line=$(cd "$2" && "${cmd[@]}" --workload "$3" --seed "$seed" --seconds "$seconds" --trace "$5" 2>>"$log" | tail -n 1) || true
    if ! jq -e '.metrics' <<<"$line" >/dev/null 2>&1; then
        echo "$1 $3 pair $4 (--trace $5): no JSON result (see $log)" >&2
        exit 1
    fi
    jq -c --arg side "$1" --arg w "$3" --argjson pair "$4" \
        '{side: $side, workload: $w, pair: $pair, correct, attempted, failed, metrics: (.metrics | map_values(.value))}' \
        <<<"$line" >>"$6"
}

alternate() { # count trace out.jsonl
    local w i
    for w in "${workloads[@]}"; do
        for ((i = 0; i < $1; i++)); do
            echo "$w pair $((i + 1))/$1 (--trace $2)" >&2
            if ((i % 2 == 0)); then
                run parent "$tree" "$w" "$i" "$2" "$3"
                run change "$root" "$w" "$i" "$2" "$3"
            else
                run change "$root" "$w" "$i" "$2" "$3"
                run parent "$tree" "$w" "$i" "$2" "$3"
            fi
        done
    done
}

alternate "$pairs" 0 "$runs"
report "$runs"
if ((trace_runs > 0)); then
    : >"$traces"
    alternate "$trace_runs" 1 "$traces"
    echo
    layers "$traces"
fi
