#!/usr/bin/env bash
# Workspace concurrency lint (DESIGN.md §11): the textual checks that
# clippy's disallowed-types/methods config (clippy.toml) cannot express.
#
#   relaxed-ok — every `Ordering::Relaxed` site must carry a
#       `// relaxed-ok: <reason>` tag on the same line or within the
#       preceding 10-line comment window, and may appear only in files
#       registered below. Upgrading a site to Acquire/Release removes it;
#       adding a new Relaxed means updating the registry *and* writing the
#       justification. A registered file with no Relaxed site left fails
#       too, so the registry cannot go stale.
#   std bans — std::sync::{Mutex,RwLock} and raw std::thread::{spawn,park}
#       are banned outside crates/shims: the shims route locks, spawns and
#       park/unpark through the model explorer, and std primitives are
#       invisible to it (std::thread::scope is fine — scoped fan-out cannot
#       leak threads).
#   recovery no-panic — unwrap()/expect() are banned in recovery paths
#       (crates/core/src/recovery.rs — which holds the one timeout/retry
#       loop, not just its counters — and crates/faults non-test code): a
#       recovery path that panics turns the injected fault into a crash.
#   env knobs — std::env::var{,_os} is banned under crates/ outside
#       crates/bench (the gate CLI) and crates/shims/model (the explorer's
#       budget/replay switches): behaviour is configured through RunSpec,
#       and diagnostics go through the typed audit trace, so debug switches
#       cannot grow back.
#   knob census — RunSpec is the only run configuration. (i) The names of
#       the second configuration type, its assembly pass and the
#       per-backend transport newtypes may not reappear in code, so no
#       compat alias can grow back; nor may the host's per-sender notice
#       bins or per-node directory replicas, nor the audit trace's run-long
#       buffer. (ii) Every `pub` field of RunSpec must
#       be set — assigned (`.f =`) or passed to the builder that assigns
#       it — by at least one non-test, non-comment line outside
#       crates/core/src/run.rs; a field nobody sets is a dead knob and the
#       lint names it.
#   engine-fork census — there is one way to wait and one run loop. Outside
#       tests and comments, code that asks which engine runs
#       (`det.is_some()`, `det_workers`, `= &self.det`, `= &self.ctx.det`) may sit only in the
#       functions registered below; `Condvar` only in crates/core/src/sync.rs
#       and the shims; and sync.rs has exactly one condvar wait and one
#       `gate_block` call, proc.rs exactly one `std::thread::scope`.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- relaxed-ok tags -------------------------------------------------------

# Files permitted to contain Ordering::Relaxed at all. Adding a file here is
# a reviewable act; each site still needs its own relaxed-ok tag.
RELAXED_REGISTRY="
crates/bench/src/gate.rs
crates/core/src/engine.rs
crates/core/src/mc_lock.rs
crates/core/src/write_notice.rs
crates/faults/src/lib.rs
crates/obs/src/metrics.rs
crates/sim/src/stats.rs
crates/vmpage/src/lib.rs
crates/workload/tests/alloc_free.rs
"

relaxed_files="$(grep -rl --include='*.rs' 'Ordering::Relaxed' crates | sort || true)"

for f in $relaxed_files; do
    if ! grep -qxF "$f" <<<"$RELAXED_REGISTRY"; then
        echo "FAIL lint(relaxed-registry): $f uses Ordering::Relaxed but is not registered in scripts/lint.sh" >&2
        fail=1
    fi
done
# The registry may not go stale: a registered file that lost its last
# Relaxed site (or no longer exists) must leave the registry with it.
for f in $RELAXED_REGISTRY; do
    if ! grep -qxF "$f" <<<"$relaxed_files"; then
        echo "FAIL lint(relaxed-registry): $f is registered in scripts/lint.sh but no longer uses Ordering::Relaxed; drop it from the registry" >&2
        fail=1
    fi
done

relaxed_sites=0
if [[ -n "$relaxed_files" ]]; then
    relaxed_sites="$(grep -c 'Ordering::Relaxed' $relaxed_files | awk -F: '{s+=$NF} END {print s+0}')"
    untagged="$(awk '
        FNR == 1 { last_tag = 0 }
        /relaxed-ok:/ { last_tag = FNR }
        /Ordering::Relaxed/ {
            if (!($0 ~ /relaxed-ok:/ || (last_tag && FNR - last_tag <= 10)))
                printf "%s:%d: Ordering::Relaxed without a relaxed-ok tag\n", FILENAME, FNR
        }
    ' $relaxed_files)"
    if [[ -n "$untagged" ]]; then
        echo "FAIL lint(relaxed-ok): every Relaxed site needs a \`// relaxed-ok: <reason>\` tag" >&2
        echo "$untagged" >&2
        fail=1
    fi
fi
echo "lint(relaxed-ok): $relaxed_sites tagged sites across $(wc -w <<<"$relaxed_files") registered files"

# --- std primitive bans outside the shims ----------------------------------

std_sync="$(grep -rnE --include='*.rs' \
    'std::sync::(Mutex|RwLock)[^a-zA-Z]|use std::sync::\{[^}]*(Mutex|RwLock)' \
    crates | grep -v '^crates/shims/' || true)"
if [[ -n "$std_sync" ]]; then
    echo "FAIL lint(std-sync): std::sync::{Mutex,RwLock} are banned outside crates/shims (use the parking_lot shim)" >&2
    echo "$std_sync" >&2
    fail=1
fi

raw_spawn="$(grep -rn --include='*.rs' 'std::thread::spawn' crates \
    | grep -v '^crates/shims/' || true)"
if [[ -n "$raw_spawn" ]]; then
    echo "FAIL lint(raw-spawn): std::thread::spawn is banned outside crates/shims (use cashmere_model::thread::spawn)" >&2
    echo "$raw_spawn" >&2
    fail=1
fi
raw_park="$(grep -rnE --include='*.rs' 'std::thread::(park|current)' crates \
    | grep -v '^crates/shims/' || true)"
if [[ -n "$raw_park" ]]; then
    echo "FAIL lint(raw-park): std::thread::{park,current} are banned outside crates/shims (use cashmere_model::thread::{park,current})" >&2
    echo "$raw_park" >&2
    fail=1
fi
echo "lint(std-bans): no std locks, raw spawns or raw parks outside crates/shims"

# --- no unwrap/expect in recovery paths ------------------------------------

recovery_viol="$(grep -n '\.unwrap()\|\.expect(' crates/core/src/recovery.rs || true)"
if [[ -n "$recovery_viol" ]]; then
    echo "FAIL lint(recovery-no-panic): unwrap/expect banned in crates/core/src/recovery.rs" >&2
    echo "$recovery_viol" >&2
    fail=1
fi
faults_viol="$(awk '
    /#\[cfg\(test\)\]/ { exit }
    /\.unwrap\(\)|\.expect\(/ { printf "crates/faults/src/lib.rs:%d: %s\n", FNR, $0 }
' crates/faults/src/lib.rs)"
if [[ -n "$faults_viol" ]]; then
    echo "FAIL lint(recovery-no-panic): unwrap/expect banned in crates/faults non-test code" >&2
    echo "$faults_viol" >&2
    fail=1
fi
echo "lint(recovery-no-panic): recovery paths free of unwrap/expect"

# --- no environment knobs outside the gate CLI and the explorer ------------

env_knobs="$(grep -rnE --include='*.rs' 'env::var(_os)?\(' crates \
    | grep -vE '^crates/(bench|shims/model)/' || true)"
if [[ -n "$env_knobs" ]]; then
    echo "FAIL lint(env-knobs): std::env::var is banned under crates/ outside crates/bench and crates/shims/model (add a RunSpec field, or use the audit trace)" >&2
    echo "$env_knobs" >&2
    fail=1
fi
echo "lint(env-knobs): no environment variables read outside crates/bench and crates/shims/model"

# --- knob census: one configuration type, no dead fields -------------------

gone='ClusterConfig|to_config_with|with_det_quantum|DET_QUANTUM_DEFAULT|RdmaTransport|CxlTransport|direct_read_transport'
# The second run loop and the carriers' blocking twins (PR 18), and the two
# fault-rule knobs nobody turned.
gone="$gone"'|\b(run_seq|run_det|try_acquire_for|try_wait|BarrierArrival|FaultScope)\b|\.(windowed|scoped)\('
# The host's per-sender notice bins and per-node directory replicas: one
# notice queue per destination, one directory array for every node.
gone="$gone"'|\b(pop_bins|drain_mutant_clear_after_pop)\b|\.replicas\b|\breplicas: Vec<'
# The audit trace's run-long buffer and a take that flattens the trace: the
# recorder fills fixed chunks and hands them over as a `Trace`.
gone="$gone"'|\bevents: Vec<TraceEvent>|fn take(_trace)?\([^)]*\) -> Vec<TraceEvent>'
revived="$(grep -rnE --include='*.rs' "$gone" crates src tests examples || true)"
if [[ -n "$revived" ]]; then
    echo "FAIL lint(knob-census): a deleted name is back (RunSpec is the only run configuration, MemoryChannel the only fabric, Cluster::run the only run loop, one acquiring method per carrier, fault rules apply everywhere, protocol metadata is O(nodes) on the host, the audit trace is recorded in chunks)" >&2
    echo "$revived" >&2
    fail=1
fi

run_rs=crates/core/src/run.rs
# `field builder` pairs: which `pub fn` of `impl RunSpec` assigns which field
# (`self.f = …`), plus the fields `new` takes as arguments (struct-literal
# shorthand), which `RunSpec::new(` sets.
setters="$(awk '
    /^impl RunSpec/ { in_impl = 1 }
    in_impl && /^}/ { exit }
    in_impl && /pub fn [a-z_]+\(/ { name = $0; sub(/.*pub fn /, "", name); sub(/\(.*/, "", name) }
    in_impl && name != "new" && /self\.[a-z_]+ = / { f = $0; sub(/.*self\./, "", f); sub(/ = .*/, "", f); print f, "[^a-z_]" name "\\(" }
    in_impl && name == "new" && /^ +[a-z_]+,$/ { f = $1; sub(/,/, "", f); print f, "RunSpec::new\\(" }
' "$run_rs")"
fields="$(awk '
    /^pub struct RunSpec/ { on = 1; next }
    on && /^}/ { exit }
    on && /^    pub [a-z_]+:/ { f = $2; sub(/:/, "", f); print f }
' "$run_rs")"
# Non-test code: everything outside tests/ directories and run.rs itself,
# each file cut at its first #[cfg(test)], comment lines dropped.
census_src="$(find crates src examples -name '*.rs' -not -path '*/tests/*' -not -path "$run_rs" \
    -exec awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live && !/^ *\/\//' {} +)"
n_fields=0
for f in $fields; do
    n_fields=$((n_fields + 1))
    pat="\\.$f *=[^=]"
    while read -r field builder; do
        [[ "$field" == "$f" ]] && pat="$pat|$builder"
    done <<<"$setters"
    if ! grep -qE "$pat" <<<"$census_src"; then
        echo "FAIL lint(knob-census): RunSpec::$f is never set outside $run_rs and tests — a dead knob; make it a constant" >&2
        fail=1
    fi
done
echo "lint(knob-census): one configuration type; $n_fields RunSpec fields checked for a non-test setter"

# --- engine-fork census: one way to wait, one run loop ---------------------

# `file:function` of every place allowed to ask which engine runs (`-` is
# file scope: the RunSpec field itself).
FORK_REGISTRY="
crates/core/src/engine.rs:det_checkpoint
crates/core/src/engine.rs:det_finish
crates/core/src/engine.rs:gate_block
crates/core/src/engine.rs:gate_enter
crates/core/src/engine.rs:gate_exit
crates/core/src/engine.rs:unblock_all
crates/core/src/proc.rs:run
crates/core/src/run.rs:-
crates/core/src/run.rs:new
crates/core/src/run.rs:with_det_parallel
crates/core/src/sync.rs:wait_until
"
forks="$(find crates src examples -name '*.rs' -not -path '*/tests/*' -exec awk '
    FNR == 1 { live = 1; fn = "-" }
    /#\[cfg\(test\)\]/ { live = 0 }
    !live || /^ *\/\// { next }
    /(^|[ (])fn [a-z_0-9]+/ { fn = $0; sub(/.*fn /, "", fn); sub(/[^a-z_0-9].*/, "", fn) }
    /det\.is_some\(\)|det_workers|= &self\.(ctx\.)?det[^a-z_]/ { print FILENAME ":" fn }
' {} + | sort -u)"
unregistered="$(grep -vxFf <(grep . <<<"$FORK_REGISTRY") <<<"$forks" || true)"
if [[ -n "$unregistered" ]]; then
    echo "FAIL lint(engine-forks): code outside the registered gate helpers, Cluster::run and the wait helper asks which engine runs" >&2
    echo "$unregistered" >&2
    fail=1
fi
condvars="$(grep -rn --include='*.rs' 'Condvar' crates src tests examples \
    | grep -vE '^crates/(shims/|core/src/sync\.rs:)' || true)"
if [[ -n "$condvars" ]]; then
    echo "FAIL lint(engine-forks): Condvar outside crates/core/src/sync.rs and the shims (a processor sleeps in sync::wait_until, nowhere else)" >&2
    echo "$condvars" >&2
    fail=1
fi
# Counts `pattern` on the non-test, non-comment lines of `file`.
live_count() {
    awk -v pat="$1" '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// && $0 ~ pat { n++ } END { print n + 0 }' "$2"
}
for want in 'cv\.wait\(@crates/core/src/sync.rs' 'gate_block\(@crates/core/src/sync.rs' 'std::thread::scope\(@crates/core/src/proc.rs'; do
    n="$(live_count "${want%@*}" "${want#*@}")"
    if [[ "$n" != 1 ]]; then
        echo "FAIL lint(engine-forks): ${want#*@} has $n sites matching '${want%@*}', want exactly 1" >&2
        fail=1
    fi
done
echo "lint(engine-forks): $(wc -l <<<"$forks") registered places know which engine runs; one condvar wait, one gate_block, one run loop"

exit "$fail"
