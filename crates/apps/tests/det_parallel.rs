//! The deterministic parallel engine (DESIGN.md §15) on a real service
//! workload: a seeded KvService trace must produce byte-identical reports
//! and checksums no matter how many host workers execute the simulated
//! processors.

use cashmere_apps::{run_app, KvService, Scale, Sor};
use cashmere_core::{ProtocolKind, RunSpec, Topology};

#[test]
fn kv_service_report_bytes_identical_across_worker_counts() {
    let app = KvService::new(Scale::Test);
    let cfg = |workers| {
        RunSpec::new(Topology::new(2, 2), ProtocolKind::OneLevelDiff).with_det_parallel(workers)
    };
    let base = run_app(&app, &cfg(1)).0;
    assert_eq!(base.checksum, app.expected_checksum());
    let par = run_app(&app, &cfg(4)).0;
    assert_eq!(
        par.report.to_json(),
        base.report.to_json(),
        "KV report bytes diverge between 1 and 4 workers"
    );
    assert_eq!(par.checksum, base.checksum);
}

/// The scheduler wakes only who runs next. Every wake is one processor's
/// transition to running — out of a park, a gate exit, a gate grant or a
/// re-grant after a block — so there can be at most `parks + 2·gates +
/// blocks` of them; a scheduler that broadcasts each decision to every
/// sleeper exceeds that many times over. The traffic behind the bound is a
/// function of the schedule alone, so it is the same at every worker count.
#[test]
fn sor_wakes_are_targeted_and_traffic_is_worker_independent() {
    let app = Sor::new(Scale::Test);
    let topo = Topology::from_paper_config(8, 4).expect("8:4 is a paper shape");
    let traffic = |workers| {
        let spec = RunSpec::new(topo, ProtocolKind::TwoLevel).with_det_parallel(workers);
        run_app(&app, &spec).1.det_stats()
    };
    let base = traffic(1);
    assert!(base.parks > 0 && base.gates > 0 && base.blocks > 0 && base.windows > 0);
    for workers in [1, 2, 8] {
        let st = traffic(workers);
        assert_eq!(
            (st.parks, st.gates, st.blocks, st.windows),
            (base.parks, base.gates, base.blocks, base.windows),
            "scheduler traffic moved at {workers} workers"
        );
        let transitions = st.parks + 2 * st.gates + st.blocks;
        assert!(
            st.wakes <= transitions + topo.total_procs() as u64,
            "{} wakes for {transitions} transitions at {workers} workers: a herd",
            st.wakes
        );
    }
}

/// Where the det engine's virtual-time golden lives, from this crate.
const DET_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/det_golden.jsonl"
);

/// One line per paper application × paper protocol at 8:4, `Scale::Test`,
/// on the det engine at one worker: the virtual execution time and the
/// checksum. Exact virtual time is the det engine's contract, so a change
/// to how it schedules must reproduce every line.
fn det_golden_lines() -> String {
    let topo = Topology::from_paper_config(8, 4).expect("8:4 is a paper shape");
    let mut out = String::new();
    for app in cashmere_apps::suite(Scale::Test) {
        for protocol in ProtocolKind::PAPER_FOUR {
            let spec = RunSpec::new(topo, protocol).with_det_parallel(1);
            let outcome = run_app(app.as_ref(), &spec).0;
            out.push_str(&format!(
                "{{\"experiment\":\"det_golden\",\"config\":\"8:4\",\"app\":\"{}\",\
                 \"protocol\":\"{}\",\"exec_ns\":{},\"checksum\":{}}}\n",
                app.name(),
                protocol.label(),
                outcome.report.exec_ns,
                outcome.checksum
            ));
        }
    }
    out
}

/// The tree reproduces `results/det_golden.jsonl` line for line. Rewrite
/// the file with `cargo test -p cashmere-apps --test det_parallel --
/// --ignored capture_det_golden`, and only for a deliberate change of the
/// schedule.
#[test]
fn det_engine_reproduces_the_committed_virtual_times() {
    let committed = std::fs::read_to_string(DET_GOLDEN).expect("results/det_golden.jsonl");
    let fresh = det_golden_lines();
    let moved: Vec<String> = committed
        .lines()
        .zip(fresh.lines())
        .filter(|(old, new)| old != new)
        .map(|(old, new)| format!("  committed {old}\n  now       {new}"))
        .collect();
    assert!(
        moved.is_empty() && committed.lines().count() == fresh.lines().count(),
        "det virtual time moved on {} cells:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
#[ignore = "rewrites results/det_golden.jsonl"]
fn capture_det_golden() {
    std::fs::write(DET_GOLDEN, det_golden_lines()).expect("write results/det_golden.jsonl");
}
