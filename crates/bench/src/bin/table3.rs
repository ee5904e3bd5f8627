//! Table 3 reproduction: detailed statistics for the four protocols at 32
//! processors (32:4), all eight applications.
//!
//! Rows follow the paper: execution time, lock/flag acquires, barriers,
//! read/write faults, page transfers, directory updates, write notices,
//! exclusive-mode transitions, data moved, and the twin-maintenance rows
//! (twin creations; incoming diffs + flush-updates for 2L; shootdowns for
//! 2LS). All counters aggregate over the 32 processors.

use cashmere_apps::{suite, Scale};
use cashmere_bench::{execute_best, fmt_k, fmt_mb, paper_spec, save_records, Record};
use cashmere_core::ProtocolKind;

fn main() {
    let apps = suite(Scale::Bench);
    let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
    let mut records = Vec::new();

    println!("Table 3: Detailed statistics at 32 processors (32:4)");
    for protocol in ProtocolKind::PAPER_FOUR {
        println!();
        println!("=== {} ===", protocol.label());
        let spec = paper_spec(protocol, 32, 4);
        let outs: Vec<_> = apps
            .iter()
            .map(|a| execute_best(a.as_ref(), &spec, a.timing_reps()))
            .collect();
        for (app, out) in apps.iter().zip(outs.iter()) {
            records.push(Record::new("table3", app.name(), &spec, out, 0));
        }

        print!("{:<26}", "Application");
        for n in &names {
            print!("{n:>10}");
        }
        println!();
        println!("{:-<106}", "");

        let row = |label: &str, vals: Vec<String>| {
            print!("{label:<26}");
            for v in vals {
                print!("{v:>10}");
            }
            println!();
        };

        row(
            "Exec. time (sim s)",
            outs.iter()
                .map(|o| format!("{:.3}", o.report.exec_secs()))
                .collect(),
        );
        row(
            "Lock/Flag Acquires",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.lock_acquires))
                .collect(),
        );
        row(
            "Barriers",
            outs.iter()
                .map(|o| o.report.counters.barriers.to_string())
                .collect(),
        );
        row(
            "Read Faults",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.read_faults))
                .collect(),
        );
        row(
            "Write Faults",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.write_faults))
                .collect(),
        );
        row(
            "Page Transfers",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.page_transfers))
                .collect(),
        );
        row(
            "Directory Updates",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.directory_updates))
                .collect(),
        );
        row(
            "Write Notices",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.write_notices))
                .collect(),
        );
        row(
            "Excl. Mode Transitions",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.exclusive_transitions))
                .collect(),
        );
        row(
            "Data (Mbytes)",
            outs.iter()
                .map(|o| fmt_mb(o.report.counters.data_bytes))
                .collect(),
        );
        row(
            "Twin Creations",
            outs.iter()
                .map(|o| fmt_k(o.report.counters.twin_creations))
                .collect(),
        );
        if protocol == ProtocolKind::TwoLevel {
            row(
                "Incoming Diffs",
                outs.iter()
                    .map(|o| o.report.counters.incoming_diffs.to_string())
                    .collect(),
            );
            row(
                "Flush-Updates",
                outs.iter()
                    .map(|o| fmt_k(o.report.counters.flush_updates))
                    .collect(),
            );
        }
        if protocol == ProtocolKind::TwoLevelShootdown {
            row(
                "Shootdowns",
                outs.iter()
                    .map(|o| o.report.counters.shootdowns.to_string())
                    .collect(),
            );
        }
    }
    save_records("table3", &records);
}
