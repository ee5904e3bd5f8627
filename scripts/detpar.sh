#!/usr/bin/env bash
# Deterministic-parallelism gate (DESIGN.md §15).
#
# Builds the release tree and runs the `detpar` harness, which
#   1. regenerates the paper-suite goldens through the default sequential
#      engine and fails unless they are byte-identical to
#      results/vt_golden.jsonl and the sequential rows of
#      results/table2.jsonl (the lookahead-barrier refactor must not move
#      the paper artifacts),
#   2. runs SOR across all four paper protocols at host worker counts
#      {1, 2, 8} (plus a repeat at 8) and requires byte-identical Report
#      JSON and equal checksums in every cell,
#   3. proves the CASHMERE_PROC_WORKERS env opt-in lands on the same bytes
#      as the RunSpec::with_det_parallel builder path, and
#   4. records the multi-worker wallclock ratio (informational — the
#      byte-identity is the gated property), then writes BENCH_detpar.json
#      (seed, jobs, and backend echoed for provenance).
# Before the harness it runs the hand-off slot's first-wait stress test
# optimized: the lost wake-up it guards against (DESIGN.md §15.4) only ever
# showed in a release build.
#
# Usage:
#   scripts/detpar.sh                      # default seed (24301)
#   DETPAR_SEED=12345 scripts/detpar.sh    # a different echoed seed
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release -p cashmere-core --offline -q --lib first_wait_on_a_fresh_slot
cargo build --release -p cashmere-bench --offline
exec target/release/detpar --seed "${DETPAR_SEED:-24301}"
