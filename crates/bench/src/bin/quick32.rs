//! Quick 32:4 snapshot: per-app speedups for 2L vs 1LD (calibration aid).
use cashmere_apps::{suite, Scale};
use cashmere_bench::{execute, paper_spec, sequential};
use cashmere_core::ProtocolKind;

fn main() {
    for app in suite(Scale::Bench) {
        let seq = sequential(app.as_ref());
        let two = execute(app.as_ref(), &paper_spec(ProtocolKind::TwoLevel, 32, 4));
        let one = execute(app.as_ref(), &paper_spec(ProtocolKind::OneLevelDiff, 32, 4));
        println!(
            "{:8} seq={:8.3}s  2L={:6.2}  1LD={:6.2}  (2L/1LD {:+.0}%)",
            app.name(),
            seq.report.exec_secs(),
            two.report.speedup(seq.report.exec_ns),
            one.report.speedup(seq.report.exec_ns),
            (one.report.exec_secs() / two.report.exec_secs() - 1.0) * 100.0
        );
    }
}
