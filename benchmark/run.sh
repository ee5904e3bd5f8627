#!/usr/bin/env bash
# The repo benchmark's one command (see README.md beside this file).
#
#   benchmark/run.sh --workload W [--seed S] [--seconds N] [--trace 0|1]
#       Build, then run workload W in one process (so VmHWM is W's own). The
#       last line of standard output is the result object BENCHMARK.json
#       describes. This is the form the driver calls.
#   benchmark/run.sh [--seed S] [--seconds N] [--trace 0|1]
#       The same for all six workloads, one process each, then the totals
#       (timed seconds per workload, "claim": null).
#   benchmark/run.sh --selfcheck [--seed S] [--seconds N]
#       The untraced set twice and the traced set once on the same build;
#       fails if the two untraced sets disagree beyond the bounds of
#       BENCHMARK.json. Results land in benchmark/out/.
#
# Exits non-zero on a failed check, a missing or undeclared metric, a build
# failure, or a release profile that differs from the root manifest's.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The program reads these; the benchmark must not run under them.
unset CASHMERE_PROC_WORKERS CASHMERE_JOBS CASHMERE_TRACE CASHMERE_BARRIER_DEBUG

# A nested workspace takes its profile from its own manifest: refuse to
# measure if it no longer mirrors the root's.
profile() {
    awk '/^\[profile\.release\]/ {on = 1; next} /^\[/ {on = 0} on && /=/ {gsub(/[ \t]/, ""); print}' "$1" | sort
}
if [[ ! -f Cargo.toml ]]; then
    echo "benchmark/run.sh: no Cargo.toml above benchmark/: the benchmark builds the repo's crates from source" >&2
    exit 2
fi
if [[ "$(profile Cargo.toml)" != "$(profile benchmark/Cargo.toml)" ]]; then
    echo "benchmark/run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 2
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/cashmere-benchmark"

workloads=(paper32 det_exact svc_read svc_write scale1024 audited)
mode=all
kind=run
args=("$@")
pass=()
for ((i = 0; i < $#; i++)); do
    case "${args[i]}" in
    --workload) mode=one ;;
    --selfcheck)
        mode=selfcheck
        continue
        ;;
    --trace) [[ "${args[i + 1]:-}" == 1 ]] && kind=traced ;;
    esac
    pass+=("${args[i]}")
done

echo "# commit $(git rev-parse --short HEAD 2>/dev/null || echo none)"

if [[ $mode == one ]]; then
    exec "$bin" "${pass[@]}"
fi

# Runs every workload with the given arguments and collects the records the
# runs leave in benchmark/out/ into the set file $1.
run_set() {
    local set="$1" kind="$2"
    shift 2
    : >"$set"
    local status=0
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" "$@" || status=1
        cat "benchmark/out/${kind}_$w.json" >>"$set"
    done
    return $status
}

mkdir -p benchmark/out
if [[ $mode == all ]]; then
    status=0
    run_set "benchmark/out/set_$kind.jsonl" "$kind" "${pass[@]}" || status=1
    "$bin" --summary "benchmark/out/set_$kind.jsonl" || status=1
    exit $status
fi

# --selfcheck
status=0
run_set benchmark/out/selfcheck_a.jsonl run "${pass[@]}" --trace 0 || status=1
run_set benchmark/out/selfcheck_b.jsonl run "${pass[@]}" --trace 0 || status=1
run_set benchmark/out/selfcheck_traced.jsonl traced "${pass[@]}" --trace 1 || status=1
"$bin" --compare benchmark/out/selfcheck_a.jsonl benchmark/out/selfcheck_b.jsonl || status=1
exit $status
