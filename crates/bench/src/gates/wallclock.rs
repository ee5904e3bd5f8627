//! `wallclock`: the virtual-time drift gate plus the wall-clock timing of
//! the quick32 suite.
//!
//! Parallel runs are *virtual-time nondeterministic* (OS thread scheduling
//! perturbs `Resource` gap placement and lock grant order; see DESIGN.md),
//! so drift is pinned by the deterministic goldens, not by the timed cells.
//! The timed phase runs eight apps × the four paper protocols at 32:4,
//! best of [`REPS`], pinned to one job so a timing rep never shares the
//! host with a sibling cell, and records per-cell wall seconds, pages
//! diffed, diff bytes, and — on the Memory Channel, where
//! `results/wallclock_baseline.jsonl` was captured — per-cell and geomean
//! speedup over that baseline. The fresh geomean may not fall more than
//! [`TOLERANCE`] below the one committed in `BENCH_wallclock.json`.
//!
//! `WALLCLOCK_BASELINE=1` is capture mode: the goldens and the wall-clock
//! baseline are rewritten instead of checked and no document is left.

use cashmere_apps::{suite, Benchmark, Scale};
use cashmere_core::ProtocolKind;

use crate::gate::{matrix, run_cells, Ctx, Done, Gate, Phase, GOLDEN};
use crate::{jsonl_field, obsout, Obj};

/// Timing repetitions per cell (the smallest wall time is reported).
pub const REPS: usize = 3;

/// How far the fresh geomean speedup may fall below the committed one: wall
/// time is noisy, so this absorbs host jitter while still catching real
/// hot-path regressions.
pub const TOLERANCE: f64 = 0.25;

/// The gate.
pub const GATE: Gate = Gate {
    name: "wallclock",
    doc: true,
    phases: &[
        GOLDEN,
        Phase {
            name: "timing quick32 (one job)",
            mc_only: false,
            run: |ctx| timing(ctx, &suite(Scale::Bench)),
        },
    ],
};

/// The timed sweep over `apps` and everything derived from it.
pub fn timing(ctx: &mut Ctx, apps: &[Box<dyn Benchmark>]) {
    let mut cells = matrix(apps, &ProtocolKind::PAPER_FOUR, |p| {
        ctx.spec(p, 32, 4).with_obs(ctx.args.obs)
    });
    for cell in &mut cells {
        cell.reps = REPS;
    }
    let mut done = Vec::with_capacity(cells.len());
    run_cells(&cells, 1, |c, _| {
        println!(
            "{} wall={:7.3}s  exec={:8.3}s",
            c.label(),
            c.wall_secs,
            c.outcome.report.exec_secs()
        );
        done.push(c);
    });

    if ctx.args.obs {
        obsout::write_fig7(&ctx.path("results"), &done, "32:4").expect("write fig7");
        if let Some((app, proto)) = ctx.args.trace.clone() {
            let exported = done
                .iter()
                .find(|c| c.app() == app && c.protocol() == proto)
                .ok_or(format!("no cell {app}:{proto} in the sweep"))
                .and_then(|c| obsout::export_trace(&ctx.path("results"), c));
            match exported {
                Ok((path, events)) => eprintln!("[wrote {} ({events} events)]", path.display()),
                Err(e) => ctx.fail(format!("--trace: {e}")),
            }
        }
    }

    let baseline_path = ctx.path("results/wallclock_baseline.jsonl");
    if ctx.capture {
        let lines: String = done
            .iter()
            .map(|c| cell_json("wallclock_baseline", c, None) + "\n")
            .collect();
        std::fs::write(&baseline_path, lines).expect("write wallclock_baseline.jsonl");
        eprintln!("[wrote {}]", baseline_path.display());
        ctx.keep_doc = false;
        return;
    }

    // The baseline was captured on the Memory Channel; another fabric's
    // virtual work differs, so cross-backend speedups would mislead.
    let baseline = ctx
        .on_mc()
        .then(|| std::fs::read_to_string(&baseline_path).ok())
        .flatten();
    let mut speedups = Vec::new();
    for c in &done {
        let base = baseline.as_deref().and_then(|b| {
            let keys = [("app", c.app()), ("protocol", c.protocol())];
            jsonl_field(b, &keys, "wall_secs")
        });
        speedups.extend(base.map(|bw| bw / c.wall_secs));
        ctx.cells.push(cell_json("wallclock", c, base));
    }
    ctx.doc.str("config", "32:4").val("reps", REPS);
    if speedups.is_empty() {
        eprintln!("[no usable wall-clock baseline — speedups omitted]");
        return;
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    ctx.doc.f64("geomean_speedup", geomean);
    println!(
        "geomean wall-clock speedup vs baseline: {geomean:.3}x ({} cells)",
        speedups.len()
    );
    let committed = std::fs::read_to_string(ctx.path("BENCH_wallclock.json"))
        .ok()
        .and_then(|doc| jsonl_field(&doc, &[("experiment", "wallclock")], "geomean_speedup"));
    if let Some(committed) = committed {
        let floor = committed * (1.0 - TOLERANCE);
        println!("wallclock regression gate: fresh={geomean:.3} committed={committed:.3} floor={floor:.3}");
        if geomean < floor {
            ctx.fail("wall-clock geomean regressed past the tolerance");
        }
    }
}

/// One cell's record, optionally with its baseline wall time and speedup.
fn cell_json(experiment: &str, c: &Done, baseline_wall: Option<f64>) -> String {
    let k = c.outcome.report.counters;
    let mut o = Obj::new();
    o.str("experiment", experiment)
        .str("app", c.app())
        .str("protocol", c.protocol())
        .f64("wall_secs", c.wall_secs)
        .f64("exec_secs", c.outcome.report.exec_secs())
        .val(
            "pages_diffed",
            k.flush_updates + k.incoming_diffs + k.shootdowns,
        )
        .val("diff_bytes", k.data_bytes);
    if let Some(bw) = baseline_wall {
        o.f64("baseline_wall_secs", bw)
            .f64("speedup", bw / c.wall_secs);
    }
    o.finish()
}
