//! §3.3.5 reproduction: impact of the lock-free protocol structures.
//!
//! The ablation re-introduces global locks on the directory entries and the
//! remote write-notice lists (compressing each into a single locked word /
//! list). The paper reports 5% (Barnes), 5% (Em3d), and 7% (Ilink)
//! improvements from the lock-free design, tracking each application's
//! volume of directory accesses and write notices.

use cashmere_apps::{suite, Scale};
use cashmere_bench::{execute_best, fmt_k, paper_spec, save_records, Record};
use cashmere_core::{DirectoryMode, ProtocolKind};

fn main() {
    let apps = suite(Scale::Bench);
    let mut records = Vec::new();

    println!("Section 3.3.5: Lock-free vs global-lock protocol structures (2L, 32:4)");
    println!();
    println!(
        "{:<9}{:>16}{:>16}{:>12}{:>12}{:>12}",
        "App", "lock-free (s)", "global-lock (s)", "gain", "dir.updates", "notices"
    );
    println!("{:-<77}", "");
    let free_spec = paper_spec(ProtocolKind::TwoLevel, 32, 4);
    let locked_spec = free_spec.clone().with_directory(DirectoryMode::GlobalLock);
    for app in &apps {
        let free = execute_best(app.as_ref(), &free_spec, 3);
        let locked = execute_best(app.as_ref(), &locked_spec, 3);
        println!(
            "{:<9}{:>16.3}{:>16.3}{:>11.1}%{:>12}{:>12}",
            app.name(),
            free.report.exec_secs(),
            locked.report.exec_secs(),
            (locked.report.exec_secs() / free.report.exec_secs() - 1.0) * 100.0,
            fmt_k(free.report.counters.directory_updates),
            fmt_k(free.report.counters.write_notices),
        );
        records.push(Record::new("lockfree", app.name(), &free_spec, &free, 0));
        records.push(Record::new(
            "lockfree_gl",
            app.name(),
            &locked_spec,
            &locked,
            0,
        ));
    }
    save_records("lockfree", &records);
    println!();
    println!("Paper finding to compare: the gain tracks directory/notice volume —");
    println!("Barnes ~5%, Em3d ~5%, Ilink ~7%, Water ~0%, others insignificant.");
}
