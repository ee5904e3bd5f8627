//! Figure 7 reproduction: speedups for the Two-Level (2L), Two-Level-
//! Shootdown (2LS), One-Level-Diffing (1LD), and One-Level-Write-Doubling
//! (1L) protocols across the paper's nine cluster configurations, plus the
//! home-node-optimization extensions of the one-level protocols (the
//! unshaded bar extensions in the paper).
//!
//! Speedups are relative to the uninstrumented sequential time (Table 2).

use cashmere_apps::{suite, Scale};
use cashmere_bench::{execute_best, paper_spec, save_records, sequential, Record, PAPER_CONFIGS};
use cashmere_core::ProtocolKind;

fn main() {
    let apps = suite(Scale::Bench);
    let mut records = Vec::new();

    println!("Figure 7: Speedups across cluster configurations");
    for app in &apps {
        let seq = sequential(app.as_ref());
        let seq_ns = seq.report.exec_ns;
        println!();
        println!(
            "--- {} (sequential: {:.4} sim s) ---",
            app.name(),
            seq.report.exec_secs()
        );
        print!("{:<8}", "config");
        for p in [
            ProtocolKind::TwoLevel,
            ProtocolKind::TwoLevelShootdown,
            ProtocolKind::OneLevelDiff,
            ProtocolKind::OneLevelDiffHome,
            ProtocolKind::OneLevelWrite,
            ProtocolKind::OneLevelWriteHome,
        ] {
            print!("{:>8}", p.label());
        }
        println!();
        for (total, per_node) in PAPER_CONFIGS {
            print!("{:<8}", format!("{total}:{per_node}"));
            for protocol in [
                ProtocolKind::TwoLevel,
                ProtocolKind::TwoLevelShootdown,
                ProtocolKind::OneLevelDiff,
                ProtocolKind::OneLevelDiffHome,
                ProtocolKind::OneLevelWrite,
                ProtocolKind::OneLevelWriteHome,
            ] {
                let spec = paper_spec(protocol, total, per_node);
                let out = execute_best(app.as_ref(), &spec, app.timing_reps());
                print!("{:>8.2}", out.report.speedup(seq_ns));
                records.push(Record::new("fig7", app.name(), &spec, &out, seq_ns));
            }
            println!();
        }
    }
    save_records("fig7", &records);
}
