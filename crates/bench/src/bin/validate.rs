//! Automated validation of the reproduction's qualitative claims — the
//! "shape" assertions from EXPERIMENTS.md checked in one run.
//!
//! Exits nonzero if any shape regresses. Slower checks use best-of-three
//! (as the paper does) for the nondeterministic applications.

use cashmere_apps::{suite, Scale};
use cashmere_bench::{execute_best, paper_spec, sequential};
use cashmere_core::ProtocolKind;

struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn main() {
    let mut checks: Vec<Check> = Vec::new();
    let apps = suite(Scale::Bench);

    // Gather 32:4 outcomes for 2L / 2LS / 1LD / 1L per app.
    let mut at32 = Vec::new();
    for app in &apps {
        let seq = sequential(app.as_ref());
        let outs: Vec<_> = ProtocolKind::PAPER_FOUR
            .iter()
            .map(|&p| execute_best(app.as_ref(), &paper_spec(p, 32, 4), app.timing_reps()))
            .collect();
        at32.push((app.name(), seq, outs));
    }

    // 1. 2L beats (or matches) 1LD on every deterministic-timing app; TSP
    //    and Barnes are allowed to tie within noise (the paper reports TSP
    //    as equal).
    for (name, _seq, outs) in &at32 {
        let two = outs[0].report.exec_ns as f64;
        let one = outs[2].report.exec_ns as f64;
        // TSP's branch-and-bound workload is nondeterministic: run-to-run
        // work variance routinely exceeds the protocol effect (the paper
        // itself reports the two protocols as equal on TSP), so it gets the
        // widest band.
        let tolerance = match *name {
            "TSP" => 1.75,
            "Barnes" | "Water" => 1.35,
            _ => 1.02,
        };
        checks.push(Check {
            name: "2L <= 1LD execution time",
            ok: two <= one * tolerance,
            detail: format!("{name}: 2L {:.3}s vs 1LD {:.3}s", two / 1e9, one / 1e9),
        });
    }

    // 2. 2L ≈ 2LS (§3.3.4): within 15% both ways on deterministic apps.
    for (name, _seq, outs) in &at32 {
        if *name == "TSP" || *name == "Barnes" || *name == "Water" {
            continue;
        }
        let two = outs[0].report.exec_ns as f64;
        let shoot = outs[1].report.exec_ns as f64;
        checks.push(Check {
            name: "2L ~ 2LS",
            ok: (two / shoot - 1.0).abs() < 0.15,
            detail: format!("{name}: 2L {:.3}s vs 2LS {:.3}s", two / 1e9, shoot / 1e9),
        });
    }

    // 3. The strongly two-level-favoring apps (Gauss, Ilink, Em3d) show a
    //    substantial (>15%) 2L win over 1LD — the paper's 22–46% family.
    for (name, _seq, outs) in &at32 {
        if !matches!(*name, "Gauss" | "Ilink" | "Em3d") {
            continue;
        }
        let gain = outs[2].report.exec_ns as f64 / outs[0].report.exec_ns as f64;
        checks.push(Check {
            name: "big two-level win (Gauss/Ilink/Em3d)",
            ok: gain > 1.15,
            detail: format!("{name}: 1LD/2L = {gain:.2}x"),
        });
    }

    // 4. 2L coalesces: fewer page transfers and less data than 1LD
    //    everywhere (TSP excluded: its transfer count tracks its
    //    nondeterministic search volume, not the protocol).
    for (name, _seq, outs) in &at32 {
        if *name == "TSP" {
            continue;
        }
        let t2 = outs[0].report.counters.page_transfers;
        let t1 = outs[2].report.counters.page_transfers;
        checks.push(Check {
            name: "2L transfers <= 1LD transfers",
            ok: t2 <= t1,
            detail: format!("{name}: {t2} vs {t1}"),
        });
    }

    // 5. LU's 1L clustering collapse (§3.3.3): 1L at 32:4 clearly slower
    //    than 2L.
    {
        let (_, _, outs) = at32.iter().find(|(n, _, _)| *n == "LU").unwrap();
        let ratio = outs[3].report.exec_ns as f64 / outs[0].report.exec_ns as f64;
        checks.push(Check {
            name: "LU write-doubling collapse",
            ok: ratio > 1.5,
            detail: format!("1L/2L = {ratio:.2}x"),
        });
    }

    // 6. Speedups are sane: every app gains from 4 → 32 processors under 2L.
    for (name, seq, outs) in &at32 {
        let s32 = outs[0].report.speedup(seq.report.exec_ns);
        checks.push(Check {
            name: "2L speedup at 32:4 > 2",
            ok: s32 > 2.0,
            detail: format!("{name}: {s32:.2}x"),
        });
    }

    // Report.
    let mut failed = 0;
    for c in &checks {
        let mark = if c.ok { "PASS" } else { "FAIL" };
        if !c.ok {
            failed += 1;
        }
        println!("[{mark}] {:<38} {}", c.name, c.detail);
    }
    println!();
    println!("{} checks, {} failed", checks.len(), failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
