//! The gate runner (`scripts/gate.sh`):
//!
//!   gate [NAME…] [--seed N] [--backend {mc,rdma,cxl}] [--obs] [--trace APP:PROTO]
//!
//! Runs the named gates (all seven when none is named) in registry order
//! in one process, writes each one's `BENCH_<gate>.json`, and exits nonzero
//! if any check failed. `cashmere_bench::gate` is the harness,
//! `cashmere_bench::gates` the phase lists.

use cashmere_bench::gate::{Args, Ctx};
use cashmere_bench::gates::GATES;

fn main() {
    let args = Args::parse(std::env::args().skip(1), &GATES).unwrap_or_else(|e| {
        eprintln!("gate: {e}");
        std::process::exit(2);
    });
    std::process::exit(Ctx::new(args).run(&GATES));
}
