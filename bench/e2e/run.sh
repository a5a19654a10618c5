#!/usr/bin/env bash
# Builds the end-to-end benchmark into build-e2e/ and runs one workload or
# all three, each in its own process.
#
#   bench/e2e/run.sh [rmat-bfs|grid-bfs|rmat-serve|all] \
#       [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
#
#   bench/e2e/run.sh [WORKLOAD|all] --pairs N --against DIR --out PREFIX
#
# Defaults: all workloads, seed 1, 30 s, untraced. Other options go to
# run.py unchanged.
#
# The second form is an interleaved A/B. DIR is another checkout of the
# repository: the parent commit, or a copy of this one for a same-code
# check. Each of N rounds runs every workload once in DIR and once here,
# alternating which side goes first, so drift of the host over the
# session lands on both sides alike. Results go to PREFIX.parent.jsonl
# (DIR) and PREFIX.change.jsonl (here), the inputs of compare.py.
set -euo pipefail
cd "$(dirname "$0")/../.."
here=$PWD

target=${1:-all}
[ $# -gt 0 ] && shift
if [ "$target" = all ]; then
  workloads=(rmat-bfs grid-bfs rmat-serve)
else
  workloads=("$target")
fi

seed=1 seconds=30 trace=0 pairs=0 against="" out=""
rest=()
while [ $# -gt 0 ]; do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --against) against=$(cd "$2" && pwd); shift 2 ;;
    --out) out=$(realpath -m "$2"); shift 2 ;;
    *) rest+=("$1"); shift ;;
  esac
done

# run CHECKOUT WORKLOAD [run.py options...]
run() {
  local dir=$1 workload=$2
  shift 2
  python3 "$dir/bench/e2e/run.py" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" "$@"
}

if [ "$pairs" -eq 0 ]; then
  for w in "${workloads[@]}"; do
    run "$here" "$w" "${rest[@]}"
  done
  exit 0
fi

if [ -z "$against" ] || [ -z "$out" ]; then
  echo "run.sh: --pairs needs --against DIR and --out PREFIX" >&2
  exit 2
fi
for ((i = 0; i < pairs; i++)); do
  for w in "${workloads[@]}"; do
    if ((i % 2 == 0)); then
      run "$against" "$w" --record "$out.parent.jsonl" "${rest[@]}" >/dev/null
      run "$here" "$w" --record "$out.change.jsonl" "${rest[@]}" >/dev/null
    else
      run "$here" "$w" --record "$out.change.jsonl" "${rest[@]}" >/dev/null
      run "$against" "$w" --record "$out.parent.jsonl" "${rest[@]}" >/dev/null
    fi
  done
done
echo "python3 bench/e2e/compare.py $out.parent.jsonl $out.change.jsonl"
