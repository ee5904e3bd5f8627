//! Deterministic virtual-time golden generation, behind the gate harness's
//! one golden preflight ([`crate::gate::Ctx::golden`]).
//!
//! Parallel runs are *virtual-time nondeterministic* (OS thread scheduling
//! perturbs `Resource` gap placement and lock grant order; see DESIGN.md),
//! so the goldens pin virtual time with two fully deterministic probes:
//!
//! * each application's sequential (1:1, uninstrumented) execution time and
//!   checksum — cross-checked against the committed `results/table2.jsonl`;
//! * a scripted single-threaded multi-node protocol **replay** across all
//!   four paper protocols, driving the [`Engine`] directly through fetches,
//!   twins, outgoing/incoming diffs, shootdowns, and exclusive mode, and
//!   recording every processor clock and protocol counter.
//!
//! Both probes accept an optional [`FaultPlan`], an audit switch, and an
//! observability switch: the `soak` gate regenerates the goldens with an
//! installed-but-empty plan (and the trace recorder on) to prove the
//! fault-injection interposition points are charge-free when no rule
//! fires, and the `obsgate` gate regenerates them with observability on
//! to prove the span/metrics hooks are too — the output must stay
//! byte-identical to `results/vt_golden.jsonl` either way.

use std::path::Path;
use std::sync::Arc;

use cashmere_apps::{run_app, Benchmark};
use cashmere_core::engine::ProcCtx;
use cashmere_core::report::Counters;
use cashmere_core::{
    Backend, Engine, FaultPlan, ProcId, ProtocolKind, RunSpec, SyncSpec, Topology, Trace,
    PAGE_WORDS,
};

use crate::{json_arr, json_map, jsonl_field, sequential_spec, Obj};

/// One golden regeneration pass: the JSONL contents plus the per-probe
/// traces (empty unless auditing was requested).
pub struct GoldenRun {
    /// Regenerated `vt_golden.jsonl` contents, one line per probe.
    pub jsonl: String,
    /// Per-app sequential seconds, for [`check_table2`].
    pub seq_secs: Vec<(&'static str, f64)>,
    /// `(probe label, protocol event stream)` per golden line; streams are
    /// empty when `audit` was off.
    pub traces: Vec<(String, Trace)>,
}

/// Builds the deterministic golden file contents — one line per
/// application's sequential run, then one line per protocol's scripted
/// replay. `plan` is installed into every probe (pass `None` for the plain
/// drift gate); `audit` additionally records each probe's protocol events;
/// `obs` turns the observability hooks on (which, being charge-free, must
/// not move a byte of the output).
pub fn build_goldens(
    apps: &[Box<dyn Benchmark>],
    plan: Option<&Arc<FaultPlan>>,
    audit: bool,
    obs: bool,
) -> GoldenRun {
    let mut jsonl = String::new();
    let mut seq_secs = Vec::new();
    let mut traces = Vec::new();
    for app in apps {
        let mut spec = sequential_spec().with_audit(audit).with_obs(obs);
        spec.fault_plan = plan.cloned();
        let (out, cluster) = run_app(app.as_ref(), &spec);
        seq_secs.push((app.name(), out.report.exec_secs()));
        traces.push((format!("sequential {}", app.name()), cluster.take_trace()));
        let line = Obj::new()
            .str("experiment", "vt_golden")
            .str("kind", "sequential")
            .str("app", app.name())
            .val("exec_ns", out.report.exec_ns)
            .val("checksum", out.checksum)
            .finish();
        jsonl.push_str(&line);
        jsonl.push('\n');
    }
    for p in ProtocolKind::PAPER_FOUR {
        let (clocks, counters, trace) =
            replay_on(Backend::MemoryChannel, p, plan.cloned(), audit, obs);
        traces.push((format!("replay {}", p.label()), trace));
        let line = Obj::new()
            .str("experiment", "vt_golden")
            .str("kind", "replay")
            .str("protocol", p.label())
            .val("total_ns", clocks.iter().sum::<u64>())
            .val("clock_ns", json_arr(&clocks))
            .val("counters", json_map(counters.pairs()))
            .finish();
        jsonl.push_str(&line);
        jsonl.push('\n');
    }
    GoldenRun {
        jsonl,
        seq_secs,
        traces,
    }
}

/// Cross-checks the deterministic sequential runs against the committed
/// `table2.jsonl` at `path` (its 1:1 rows were produced by the same
/// `sequential()` entry point). Returns the number of mismatches.
pub fn check_table2(path: &Path, seq_secs: &[(&'static str, f64)]) -> usize {
    let Ok(committed) = std::fs::read_to_string(path) else {
        eprintln!("[no {} — sequential cross-check skipped]", path.display());
        return 0;
    };
    let mut failures = 0;
    for &(name, got) in seq_secs {
        let Some(want) = jsonl_field(&committed, &[("app", name), ("config", "1:1")], "exec_secs")
        else {
            continue;
        };
        if got.to_bits() != want.to_bits() {
            failures += 1;
            eprintln!("table2 seq       {name:8} DRIFT: committed {want:?}s, regenerated {got:?}s");
        }
    }
    failures
}

/// Scripted single-threaded protocol replay: 2 nodes × 2 processors, driven
/// through every diff-carrying path the suite exercises. Single-threaded
/// engine driving is fully deterministic (no OS scheduling, no resource
/// contention races), so the resulting virtual clocks and counters are exact
/// fingerprints of the protocol's cost charging.
///
/// The word sets touched by the two nodes are disjoint within each page
/// (producer writes in `[0, 448)` + words 1000/1001, consumer writes in
/// `[512, 960)`), keeping the script data-race-free at word granularity —
/// the protocols' programming model — while still exercising two-way
/// diffing, shootdown, and run-shaped diffs.
/// The replay runs on an explicit interconnect backend (DESIGN.md §14). The
/// script is fully deterministic on every backend, so the clocks and
/// counters it returns are exact per-backend cost fingerprints — the
/// `xbackend` harness uses them to prove direct-read backends issue fewer
/// request/reply round trips than the Memory Channel. On `MemoryChannel`
/// it produces the bytes of the committed goldens.
pub fn replay_on(
    backend: Backend,
    protocol: ProtocolKind,
    plan: Option<Arc<FaultPlan>>,
    audit: bool,
    obs: bool,
) -> (Vec<u64>, Counters, Trace) {
    let mut cfg = RunSpec::new(Topology::new(2, 2), protocol)
        .with_heap_pages(16)
        .with_sync(SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        })
        .with_transport(backend)
        .with_audit(audit)
        .with_obs(obs);
    // Superpage granularity 2 so non-home private pages exist (exclusive
    // mode is reachable), exactly as in the engine-semantics tests.
    cfg.pages_per_superpage = 2;
    cfg.fault_plan = plan;
    let e = Engine::new(cfg);
    let mut ctxs: Vec<ProcCtx> = (0..4).map(|i| e.make_ctx(ProcId(i))).collect();

    // Phase 1: per-page sharing with varied diff shapes. p0 (node 0) is the
    // producer; p2/p3 (node 1) consume, write back, and race with p0.
    for page in 0..6usize {
        let base = page * PAGE_WORDS;
        let pattern = write_pattern(page);
        // First touch by p0 homes the superpage at node 0.
        for &w in &pattern {
            e.write_word(&mut ctxs[0], base + w, ((page as u64) << 32) | w as u64);
        }
        e.release_actions(&mut ctxs[0]);

        // Remote read: page fetch to node 1.
        e.acquire_actions(&mut ctxs[2]);
        for &w in &pattern {
            assert_eq!(
                e.read_word(&mut ctxs[2], base + w),
                ((page as u64) << 32) | w as u64
            );
        }
        // Remote writes: twin + dirty list, shifted into [512, 960).
        for &w in &pattern {
            e.write_word(&mut ctxs[2], base + 512 + w, w as u64 + 1);
        }

        // Concurrent home-side writes + release: posts notices while node 1
        // still has a local writer (words 1000/1001 are untouched by node 1,
        // so the script stays data-race-free).
        e.write_word(&mut ctxs[0], base + 1000, 7);
        e.write_word(&mut ctxs[0], base + 1001, 8);
        e.release_actions(&mut ctxs[0]);

        // Sibling read after acquire: under 2LS this shoots down p2's write
        // mapping; under 2L the refetch applies an incoming diff on top of
        // p2's unflushed words.
        e.acquire_actions(&mut ctxs[3]);
        assert_eq!(e.read_word(&mut ctxs[3], base + 1000), 7);
        e.acquire_actions(&mut ctxs[2]);
        assert_eq!(e.read_word(&mut ctxs[2], base + 1001), 8);

        // Outgoing diff flush of node 1's surviving writes.
        e.release_actions(&mut ctxs[2]);
        e.release_actions(&mut ctxs[3]);
        e.acquire_actions(&mut ctxs[0]);
        assert_eq!(
            e.read_word(&mut ctxs[0], base + 512 + pattern[0]),
            pattern[0] as u64 + 1
        );
    }

    // Phase 2: exclusive mode. p0 first-touches page 12 (homes superpage
    // {12,13} at node 0); p2 writes page 13 privately → exclusive; a sibling
    // writer joins; p1's read breaks exclusivity (whole-frame flush); the
    // sibling's next release flushes via the NLE path.
    let base = 12 * PAGE_WORDS;
    e.write_word(&mut ctxs[0], base, 1);
    for w in 0..64usize {
        e.write_word(&mut ctxs[2], base + PAGE_WORDS + w, 100 + w as u64);
    }
    e.write_word(&mut ctxs[3], base + PAGE_WORDS + 300, 5);
    e.release_actions(&mut ctxs[2]);
    assert_eq!(e.read_word(&mut ctxs[1], base + PAGE_WORDS), 100);
    e.write_word(&mut ctxs[3], base + PAGE_WORDS + 301, 6);
    e.release_actions(&mut ctxs[3]);
    // p1 must acquire to see the flush: under the one-level protocols it is
    // its own protocol node and its read mapping is legitimately stale
    // until then (lazy release consistency).
    e.acquire_actions(&mut ctxs[1]);
    assert_eq!(e.read_word(&mut ctxs[1], base + PAGE_WORDS + 301), 6);

    let clocks = ctxs.iter().map(|c| c.clock.now()).collect();
    let trace = e.recorder().map(|r| r.take()).unwrap_or_default();
    for ctx in &ctxs {
        e.absorb(ctx);
    }
    (clocks, e.counters(), trace)
}

/// Per-page word-write pattern (all within `[0, 448)`), chosen to produce
/// dense runs, alternating words, sparse singles, and long runs — the diff
/// shapes a run-length representation must handle.
fn write_pattern(page: usize) -> Vec<usize> {
    match page % 6 {
        // Dense run at the front.
        0 => (0..96).collect(),
        // Alternating words (worst case for run-length coding).
        1 => (0..192).step_by(2).collect(),
        // Sparse singles.
        2 => (0..448).step_by(37).collect(),
        // Two separated dense runs.
        3 => (32..64).chain(400..440).collect(),
        // One long dense run.
        4 => (0..440).collect(),
        // Single word.
        _ => vec![5],
    }
}
