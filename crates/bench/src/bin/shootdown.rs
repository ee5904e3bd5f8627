//! §3.3.4 reproduction: TLB shootdown versus two-way diffing, and the cost
//! of an interrupt-based shootdown mechanism.
//!
//! The paper finds 2LS ≈ 2L with polling-based shootdown, and a ~6%
//! execution-time increase for Water (the lock-based application with false
//! sharing) when shootdown uses intra-node interrupts (142 µs per processor
//! instead of 72 µs).

use cashmere_apps::{suite, Scale};
use cashmere_bench::{execute_best, paper_spec, save_records, Record};
use cashmere_core::{Messaging, ProtocolKind};

fn main() {
    let apps = suite(Scale::Bench);
    let mut records = Vec::new();

    println!("Section 3.3.4: TLB shootdown vs two-way diffing at 32 processors (32:4)");
    println!();
    println!(
        "{:<9}{:>12}{:>14}{:>16}{:>12}{:>14}",
        "App", "2L (s)", "2LS-poll (s)", "2LS-intr (s)", "shootdowns", "intr. slowdown"
    );
    println!("{:-<77}", "");
    let two_spec = paper_spec(ProtocolKind::TwoLevel, 32, 4);
    let shoot_spec = paper_spec(ProtocolKind::TwoLevelShootdown, 32, 4);
    let intr_spec = shoot_spec.clone().with_messaging(Messaging::Interrupt);
    for app in &apps {
        let two = execute_best(app.as_ref(), &two_spec, 3);
        let shoot_poll = execute_best(app.as_ref(), &shoot_spec, 3);
        let shoot_intr = execute_best(app.as_ref(), &intr_spec, 3);
        println!(
            "{:<9}{:>12.3}{:>14.3}{:>16.3}{:>12}{:>13.1}%",
            app.name(),
            two.report.exec_secs(),
            shoot_poll.report.exec_secs(),
            shoot_intr.report.exec_secs(),
            shoot_poll.report.counters.shootdowns,
            (shoot_intr.report.exec_secs() / shoot_poll.report.exec_secs() - 1.0) * 100.0,
        );
        records.push(Record::new("shootdown", app.name(), &two_spec, &two, 0));
        records.push(Record::new(
            "shootdown",
            app.name(),
            &shoot_spec,
            &shoot_poll,
            0,
        ));
    }
    save_records("shootdown", &records);
    println!();
    println!("Paper finding to compare: 2LS matches 2L under polling; interrupt-based");
    println!("shootdown costs ~6% on Water (false sharing under locks); shootdown is");
    println!("rare because multi-writer pages are never \"stolen\".");
}
