//! The seven gates, each a phase list over [`crate::gate::Ctx`]. The phase
//! functions that sweep take their application list (or ladder, or time
//! floor) as a parameter so the tests can run them on the smallest input
//! that still produces the gate's whole document.

use cashmere_core::{FaultKind, FaultPlan, FaultRule};

use crate::gate::{Gate, PlanFn, GOLDEN};

pub mod detpar;
pub mod obsgate;
pub mod scaling;
pub mod service;
pub mod soak;
pub mod xbackend;

/// `golden`: the virtual-time drift gate on its own — the shared [`GOLDEN`]
/// preflight, runnable by name. Parallel runs are virtual-time
/// nondeterministic (DESIGN.md §2.4), so drift is pinned by the
/// deterministic goldens; `GOLDEN_CAPTURE=1` rewrites
/// `results/vt_golden.jsonl` instead of checking it. (Host wall-clock is
/// judged in one place, the repo benchmark's `paper32` workload.)
pub const GOLDEN_GATE: Gate = Gate {
    name: "golden",
    doc: false,
    phases: &[GOLDEN],
};

/// Every registered gate, in the order a bare `gate` runs them.
pub const GATES: [Gate; 7] = [
    GOLDEN_GATE,
    soak::GATE,
    obsgate::GATE,
    service::GATE,
    scaling::GATE,
    detpar::GATE,
    xbackend::GATE,
];

/// Fault plan: page-fetch and exclusive-break requests get lost, so the
/// protocol's timeout/retry paths must engage.
pub const LOST_REQUESTS: (&str, PlanFn) = ("lost-requests", |seed| {
    FaultPlan::new(seed)
        .with_rule(FaultRule::new(FaultKind::LoseFetch, 0.25))
        .with_rule(FaultRule::new(FaultKind::LoseBreak, 0.25))
});

/// Fault plan: remote writes arrive twice, so duplicate suppression must
/// engage.
pub const DUPLICATED_TRANSFERS: (&str, PlanFn) = ("duplicated-transfers", |seed| {
    FaultPlan::new(seed).with_rule(FaultRule::new(FaultKind::DuplicateWrite, 0.25))
});

/// Fault plan: drops, delays and outages, all repaired at the (simulated)
/// link level, below the protocol — recovery counters legitimately stay
/// zero under it.
pub const LOSSY_LINK: (&str, PlanFn) = ("lossy-link", |seed| {
    FaultPlan::new(seed)
        .with_rule(FaultRule::new(FaultKind::DropWrite, 0.10))
        .with_rule(FaultRule::new(FaultKind::DelayWrite, 0.10).with_param_ns(5_000))
        .with_rule(FaultRule::new(FaultKind::LinkOutage, 0.002).with_param_ns(50_000))
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{scratch_ctx, Args, Ctx, Phase};
    use cashmere_apps::{suite, Scale};
    use cashmere_obs::json::{parse, Value};

    fn keys(v: &Value) -> Vec<&str> {
        let Value::Obj(fields) = v else {
            panic!("not an object: {v:?}");
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys
    }

    /// The distinct key sets of the objects in array `v[field]`, each with
    /// its `phase` value (service's two record shapes share one array).
    fn record_keys<'a>(v: &'a Value, field: &str) -> Vec<(Option<&'a str>, Vec<&'a str>)> {
        let mut shapes = Vec::new();
        for cell in v.get(field).and_then(Value::as_arr).expect("an array") {
            let shape = (cell.get("phase").and_then(Value::as_str), keys(cell));
            if !shapes.contains(&shape) {
                shapes.push(shape);
            }
        }
        shapes.sort();
        shapes
    }

    fn small(run: fn(&mut Ctx)) -> Phase {
        Phase {
            name: "smallest input",
            mc_only: false,
            run,
        }
    }

    /// Every gate's document-producing phases, on the smallest input that
    /// still yields the whole document: what they would write must parse
    /// and must have the committed `BENCH_<gate>.json`'s top-level and
    /// per-record key sets.
    #[test]
    fn gate_documents_parse_and_keep_the_committed_key_sets() {
        let gates: [(&Gate, Vec<Phase>, &[&str]); 5] = [
            (
                &soak::GATE,
                vec![small(|c| soak::fault_matrix(c, &suite(Scale::Test)[..1]))],
                &["cells"],
            ),
            (
                &service::GATE,
                service::GATE.phases[1..].to_vec(),
                &["cells", "determinism"],
            ),
            (
                &scaling::GATE,
                vec![small(|c| scaling::ladder(c, &["2x2", "4x2"]))],
                &["cells", "sublinearity"],
            ),
            (
                &detpar::GATE,
                vec![small(|c| detpar::identity_matrix(c, 0.0))],
                &["cells"],
            ),
            (
                &xbackend::GATE,
                vec![
                    xbackend::GATE.phases[1],
                    small(|c| xbackend::sweep(c, &suite(Scale::Test)[..1])),
                ],
                &["cells", "replay", "totals"],
            ),
        ];
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (gate, phases, record_arrays) in gates {
            let mut ctx = scratch_ctx(gate.name, Args::default());
            let doc = ctx.run_phases(gate.name, gate.doc, &phases);
            let doc = doc.expect("the gate leaves a document");
            let fresh = parse(&doc).unwrap_or_else(|e| panic!("{}: {e}\n{doc}", gate.name));
            let path = repo.join(format!("BENCH_{}.json", gate.name));
            let committed = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            assert_eq!(keys(&fresh), keys(&committed), "{} top level", gate.name);
            for field in record_arrays {
                assert_eq!(
                    record_keys(&fresh, field),
                    record_keys(&committed, field),
                    "{} {field}",
                    gate.name
                );
            }
        }
    }
}
