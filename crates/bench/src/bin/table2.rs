//! Table 2 reproduction: data-set sizes and sequential execution times.
//!
//! The paper's Table 2 reports uninstrumented sequential execution times for
//! its (much larger) inputs — e.g. SOR at 3072×4096 takes 195 s, Water with
//! 4096 molecules 1847.6 s. The reproduction runs scaled-down inputs on the
//! simulated uniprocessor and reports simulated seconds; the *relative
//! ordering* of the applications' compute demands is what carries over.

use cashmere_apps::{suite, Scale};
use cashmere_bench::{save_records, sequential, sequential_spec, Record};

fn main() {
    println!("Table 2: Data set sizes and sequential execution times (simulated)");
    println!();
    println!(
        "{:<9}{:<46}{:>14}",
        "Program", "Problem size (scaled)", "Time (sim s)"
    );
    println!("{:-<69}", "");
    let mut records = Vec::new();
    for app in suite(Scale::Bench) {
        let out = sequential(app.as_ref());
        println!(
            "{:<9}{:<46}{:>14.4}",
            app.name(),
            app.size_description(),
            out.report.exec_secs()
        );
        records.push(Record::new(
            "table2",
            app.name(),
            &sequential_spec(),
            &out,
            0,
        ));
    }
    save_records("table2", &records);
}
