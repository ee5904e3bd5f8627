//! Calibration probe: full breakdown + counters for one app at 32:4.
use cashmere_apps::{run_app, suite, Scale};
use cashmere_bench::{paper_spec, sequential};
use cashmere_core::{ProtocolKind, TimeCategory};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Barnes".into());
    for app in suite(Scale::Bench) {
        if app.name() != name {
            continue;
        }
        let seq = sequential(app.as_ref());
        let out = run_app(app.as_ref(), &paper_spec(ProtocolKind::TwoLevel, 32, 4)).0;
        let r = &out.report;
        let pp = |c: TimeCategory| r.breakdown.get(c) as f64 / r.procs as f64 / 1e9;
        println!(
            "{} seq={:.3} exec={:.3} speedup={:.2}",
            name,
            seq.report.exec_secs(),
            r.exec_secs(),
            r.speedup(seq.report.exec_ns)
        );
        println!(
            "per-proc: user={:.3} proto={:.3} poll={:.3} comm={:.3}",
            pp(TimeCategory::User),
            pp(TimeCategory::Protocol),
            pp(TimeCategory::Polling),
            pp(TimeCategory::CommWait)
        );
        let c = r.counters;
        println!(
            "locks={} barriers={} rf={} wf={} xfer={} wn={} dir={} excl={} twin={} data={}MB",
            c.lock_acquires,
            c.barriers,
            c.read_faults,
            c.write_faults,
            c.page_transfers,
            c.write_notices,
            c.directory_updates,
            c.exclusive_transitions,
            c.twin_creations,
            c.data_bytes / 1_000_000
        );
    }
}
