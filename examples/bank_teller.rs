//! A lock-heavy "bank" workload: concurrent transfers between accounts
//! under fine-grained locks, with an invariant audit — demonstrates
//! release-consistent locking and the migratory sharing pattern.
//!
//! This is now a thin demo over the benchmarked [`BankOltp`] app (see
//! `crates/apps/src/bank_oltp.rs` and DESIGN.md §13): a deterministic
//! Zipf-skewed transfer trace from `cashmere-workload`, two-lock ordered
//! transfers, and a conservation audit at every round barrier. The
//! `service` bench bin sweeps the same app across all four protocols.
//!
//! Run with: `cargo run --release --example bank_teller`

use cashmere::apps::{run_app, BankOltp, Benchmark, Scale};
use cashmere::{ProtocolKind, RunSpec, Topology};

fn main() {
    let app = BankOltp::new(Scale::Test);
    let cfg = RunSpec::new(Topology::new(4, 2), ProtocolKind::TwoLevel);
    let out = run_app(&app, &cfg).0;

    assert_eq!(
        out.checksum,
        app.expected_total(),
        "money must be conserved"
    );
    println!(
        "money conserved across {} skewed transfers ({}): total = {}",
        app.spec.ops,
        app.size_description(),
        out.checksum
    );
    println!(
        "audited at every one of {} round barriers; trace digest {:016x}",
        app.rounds,
        app.trace().digest()
    );
    println!(
        "simulated time {:.3} ms; lock acquires {}; page transfers {}",
        out.report.exec_secs() * 1e3,
        out.report.counters.lock_acquires,
        out.report.counters.page_transfers
    );
}
