#!/usr/bin/env bash
# Runs the gates: builds the release tree and hands every argument to the
# `gate` binary (crates/bench/src/bin/gate.rs).
#
#   scripts/gate.sh                           # the seven gates, seed 24301
#   scripts/gate.sh paper                     # the paper's evaluation (named only)
#   scripts/gate.sh obsgate --trace Water:2L
#   scripts/gate.sh soak service --seed 12345 --backend rdma
#   GOLDEN_CAPTURE=1 scripts/gate.sh golden   # (re)capture results/vt_golden.jsonl
#
# README.md "Running the gates" lists each gate's phases and artifact.
# CASHMERE_JOBS bounds how many cells of an untimed sweep run at once
# (default: available parallelism). A seed fixes the service traces and
# every fault schedule in virtual time, so a failing run replays bit-for-bit.
set -euo pipefail
cd "$(dirname "$0")/.."

# The det hand-off slot's first-wait stress test, optimized: the lost
# wake-up it guards against (DESIGN.md §15.4) only ever showed in a release
# build, so the detpar gate has always run it there.
if [[ $# -eq 0 || " $* " == *" detpar "* ]]; then
    cargo test --release -p cashmere-core --offline -q --lib first_wait_on_a_fresh_slot
fi
cargo build --release -p cashmere-bench --offline
exec target/release/gate "$@"
