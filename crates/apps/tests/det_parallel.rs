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
