//! Figure 6 reproduction: breakdown of percent normalized execution time at
//! 32 processors for the 2L, 2LS, 1LD, and 1L protocols.
//!
//! As in the paper, each application's bars are normalized to the total
//! execution time of Cashmere-2L (so 2L's bar sums to 100% and slower
//! protocols exceed it), and time divides into User, Protocol, Polling,
//! Comm & Wait, and (1L only) Write Doubling.

use cashmere_apps::{suite, Scale};
use cashmere_bench::{execute_best, paper_spec, save_records, Record};
use cashmere_core::{ProtocolKind, TimeCategory};

fn main() {
    let apps = suite(Scale::Bench);
    let mut records = Vec::new();

    println!("Figure 6: Normalized execution-time breakdown at 32 processors (32:4)");
    println!("(percent of the 2L total; columns sum to the protocol's relative time)");
    for app in &apps {
        let outs: Vec<_> = ProtocolKind::PAPER_FOUR
            .iter()
            .map(|&p| {
                let spec = paper_spec(p, 32, 4);
                let out = execute_best(app.as_ref(), &spec, app.timing_reps());
                (spec, out)
            })
            .collect();
        let base = outs[0].1.report.exec_ns.max(1); // 2L execution time
        println!();
        println!("--- {} ---", app.name());
        print!("{:<16}", "Component");
        for (spec, _) in &outs {
            print!("{:>9}", spec.protocol.label());
        }
        println!();
        for cat in TimeCategory::ALL {
            print!("{:<16}", cat.label());
            for (_, out) in &outs {
                // Average per-processor time in this category, relative to
                // the 2L wall time.
                let per_proc = out.report.breakdown.get(cat) / out.report.procs as u64;
                print!("{:>8.1}%", per_proc as f64 / base as f64 * 100.0);
            }
            println!();
        }
        print!("{:<16}", "Total (rel 2L)");
        for (_, out) in &outs {
            print!("{:>8.1}%", out.report.exec_ns as f64 / base as f64 * 100.0);
        }
        println!();
        for (spec, out) in &outs {
            records.push(Record::new("fig6", app.name(), spec, out, 0));
        }
    }
    save_records("fig6", &records);
}
