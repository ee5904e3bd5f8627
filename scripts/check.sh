#!/usr/bin/env bash
# Repo-wide hygiene + correctness check. Everything runs offline.
#
#   fmt    — no diffs allowed
#   clippy — workspace lints (Cargo.toml [workspace.lints]) as hard errors,
#            across every target (libs, bins, tests, benches, examples)
#   lint   — the textual lint (scripts/lint.sh: relaxed-ok tags,
#            std-primitive bans, recovery no-panic scan, environment-knob
#            ban, knob census, engine-fork census)
#   test   — the full workspace suite, including the model_* interleaving
#            explorations (DESIGN.md §11); note `--workspace`: a bare
#            `cargo test` at the root only tests the facade package
#
# The gates are a separate command: scripts/gate.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets --offline -- -D warnings
scripts/lint.sh
cargo test --workspace --offline -q
