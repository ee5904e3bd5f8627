//! The eight gates, each a phase list over [`crate::gate::Ctx`]. The phase
//! functions that sweep take their application list (or ladder, or time
//! floor) as a parameter so the tests can run them on the smallest input
//! that still produces the gate's whole document.

use cashmere_core::{FaultKind, FaultPlan, FaultRule};

use crate::gate::{Args, Gate, PlanFn, GOLDEN};

pub mod detpar;
pub mod obsgate;
pub mod paper;
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

/// Every gate a bare `gate` runs, in order.
pub const GATES: [Gate; 7] = [
    GOLDEN_GATE,
    soak::GATE,
    obsgate::GATE,
    service::GATE,
    scaling::GATE,
    detpar::GATE,
    xbackend::GATE,
];

/// Every gate the command line can name, in the order they run: [`GATES`],
/// then `paper`, which runs only when named — its shape checks judge
/// free-running virtual time, and now and then one fails (EXPERIMENTS.md).
pub const NAMED: [Gate; 8] = {
    let [a, b, c, d, e, f, g] = GATES;
    [a, b, c, d, e, f, g, paper::GATE]
};

/// The gates a command line picks from: [`NAMED`] when it names any, the
/// bare list [`GATES`] when it names none.
#[must_use]
pub fn registry(args: &Args) -> &'static [Gate] {
    if args.gates.is_empty() {
        &GATES
    } else {
        &NAMED
    }
}

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
    use std::collections::BTreeSet;

    use super::*;
    use crate::gate::{scratch_ctx, Ctx, Phase};
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

    /// A committed file of the repo, by path from its root.
    fn committed(rel: &str) -> String {
        let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        std::fs::read_to_string(repo.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    }

    /// The array `v[field]`.
    fn array<'a>(v: &'a Value, field: &str) -> &'a [Value] {
        v.get(field).and_then(Value::as_arr).expect("an array")
    }

    /// The distinct key sets of `records`, each with its `phase` value
    /// (service's two record shapes share one array).
    fn record_keys(records: &[Value]) -> Vec<(Option<&str>, Vec<&str>)> {
        let mut shapes = Vec::new();
        for cell in records {
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
        for (gate, phases, record_arrays) in gates {
            let mut ctx = scratch_ctx(gate.name, Args::default());
            let doc = ctx.run_phases(gate.name, gate.doc, &phases);
            let doc = doc.expect("the gate leaves a document");
            let fresh = parse(&doc).unwrap_or_else(|e| panic!("{}: {e}\n{doc}", gate.name));
            let committed = parse(&committed(&format!("BENCH_{}.json", gate.name))).unwrap();
            assert_eq!(keys(&fresh), keys(&committed), "{} top level", gate.name);
            for field in record_arrays {
                assert_eq!(
                    record_keys(array(&fresh, field)),
                    record_keys(array(&committed, field)),
                    "{} {field}",
                    gate.name
                );
            }
        }
    }

    /// The names of the files `step` writes under an empty `results/`.
    fn written(ctx: &mut Ctx, step: impl FnOnce(&mut Ctx)) -> BTreeSet<String> {
        let results = ctx.path("results");
        std::fs::remove_dir_all(&results).unwrap();
        std::fs::create_dir_all(&results).unwrap();
        step(ctx);
        std::fs::read_dir(&results)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect()
    }

    /// `obsgate` owns `results/fig7.*`, the paper gate everything else it
    /// writes: on the smallest input, the two write disjoint sets of files,
    /// and every JSONL the paper gate writes has the committed file's
    /// per-record key set.
    #[test]
    fn paper_and_obsgate_write_disjoint_files_with_the_committed_key_sets() {
        let mut ctx = scratch_ctx("paper-writers", Args::default());
        let apps = suite(Scale::Test);
        let fig7 = written(&mut ctx, |c| obsgate::fig7_sweep(c, &apps[..1]));
        let tables = written(&mut ctx, |c| paper::sweep(c, &apps[..1], &[paper::AT32]));
        assert!(fig7.contains("fig7.jsonl"), "{fig7:?}");
        assert!(tables.contains("speedups.jsonl"), "{tables:?}");
        assert!(fig7.is_disjoint(&tables), "{fig7:?} vs {tables:?}");

        let lines =
            |text: String| -> Vec<Value> { text.lines().map(|l| parse(l).unwrap()).collect() };
        for name in tables.iter().filter(|n| n.ends_with(".jsonl")) {
            let fresh = lines(std::fs::read_to_string(ctx.path("results").join(name)).unwrap());
            let committed = lines(committed(&format!("results/{name}")));
            assert_eq!(record_keys(&fresh), record_keys(&committed), "{name}");
        }
    }

    /// The `table1` phase reproduces the committed table byte for byte, and
    /// `paper` runs when named but not in a bare run.
    #[test]
    fn paper_table1_is_byte_identical_and_paper_runs_only_when_named() {
        let mut ctx = scratch_ctx("paper-table1", Args::default());
        ctx.run_phases("paper", false, &paper::GATE.phases[1..2]);
        assert_eq!(ctx.failures, 0);
        let fresh = std::fs::read_to_string(ctx.path("results/table1.txt")).unwrap();
        assert_eq!(fresh, committed("results/table1.txt"));

        let parse = |line: &str| Args::parse(line.split_whitespace().map(String::from), &NAMED);
        let named = parse("golden paper").unwrap();
        assert_eq!(named.gates, ["golden", "paper"]);
        assert!(registry(&named).iter().any(|g| g.name == "paper"));
        let bare = registry(&parse("").unwrap());
        assert_eq!(bare.len(), 7);
        assert!(bare.iter().all(|g| g.name != "paper"));
    }
}
