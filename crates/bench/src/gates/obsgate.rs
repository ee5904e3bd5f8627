//! `obsgate`: the observability hooks are charge-free and their numbers
//! add up.
//!
//! 1. **Charge-free identity.** The deterministic goldens regenerated with
//!    observability on must be byte-identical to the ones regenerated with
//!    it off and to the committed file: the hooks only read processor
//!    clocks, so turning them on must not move a byte.
//! 2. **Figure-7 identity sweep.** The application suite (test scale) × the
//!    four paper protocols at 8:4 with observability on: per cell, the five
//!    Figure-7 categories must sum to *exactly* the run's total charged
//!    virtual time and the span stream must pass
//!    `cashmere_check::audit_spans` (proper nesting, nothing left open).
//!    Writes `results/fig7.{jsonl,txt}`.
//! 3. **Chrome-trace schema lint.** One cell's spans — the one
//!    `--trace APP:PROTO` names, SOR under 2L by default — are exported as
//!    `results/trace_<app>_<proto>.json` and linted against the
//!    `trace_event` subset Perfetto and `chrome://tracing` rely on.
//!
//! Phases 2 and 3 run unchanged on every fabric.

use cashmere_apps::{suite, Benchmark, Scale};
use cashmere_check::audit_spans;
use cashmere_core::ProtocolKind;

use crate::gate::{matrix, run_cells, Ctx, Gate, Golden, Phase};
use crate::obsout;

/// The sweep configuration: 8 processors, 4 per node — two protocol nodes,
/// so every category (including message and wait time on remote fetches)
/// is exercised.
const CONFIG: (usize, usize) = (8, 4);

/// The gate.
pub const GATE: Gate = Gate {
    name: "obsgate",
    doc: false,
    phases: &[
        Phase {
            name: "charge-free golden identity",
            mc_only: true,
            run: |ctx| {
                let off = ctx.golden(Golden::Plain);
                let on = ctx.golden(Golden::Obs);
                if off != on {
                    ctx.fail("obsgate identity: enabling observability moved virtual time");
                }
            },
        },
        Phase {
            name: "Figure-7 identity sweep + trace lint",
            mc_only: false,
            run: |ctx| fig7_sweep(ctx, &suite(Scale::Test)),
        },
    ],
};

/// The Figure-7 identity sweep over `apps`, the span audit, and the
/// Chrome-trace lint.
pub fn fig7_sweep(ctx: &mut Ctx, apps: &[Box<dyn Benchmark>]) {
    let cells = matrix(apps, &ProtocolKind::PAPER_FOUR, |p| {
        ctx.spec(p, CONFIG.0, CONFIG.1).with_obs(true)
    });
    let mut done = Vec::with_capacity(cells.len());
    run_cells(&cells, ctx.jobs, |cell, _| {
        let report = &cell.outcome.report;
        let obs = report.obs.as_ref().expect("sweep ran with obs on");
        let (fig7, vt) = (obs.fig7.total(), report.breakdown.total());
        if fig7 != vt {
            ctx.fail(format!(
                "{}: FIG7 {fig7} != total VT {vt} (off by {})",
                cell.label(),
                vt.abs_diff(fig7)
            ));
        }
        let spans = audit_spans(obs);
        if !spans.is_clean() {
            ctx.fail(format!(
                "{}: SPAN AUDIT DIRTY\n{}",
                cell.label(),
                spans.summary()
            ));
        }
        println!(
            "{} total_vt={vt:14} fig7_exact={} spans={:6} nested={}",
            cell.label(),
            fig7 == vt,
            spans.events,
            spans.is_clean(),
        );
        done.push(cell);
    });

    let results = ctx.path("results");
    let config = format!("{}:{}", CONFIG.0, CONFIG.1);
    match obsout::write_fig7(&results, &done, &config) {
        Ok(rows) if rows == done.len() => {}
        Ok(rows) => ctx.fail(format!(
            "obsgate: only {rows} of {} cells produced Figure-7 rows",
            done.len()
        )),
        Err(e) => ctx.fail(format!("obsgate: writing fig7 outputs failed: {e}")),
    }
    // `--trace` must name a cell of the sweep; the default falls back to
    // the first cell when the sweep (a test's) has no SOR.
    let named = |app: &str, proto: &str| {
        done.iter()
            .find(|c| c.app() == app && c.protocol() == proto)
    };
    let exported = match &ctx.args.trace {
        Some((app, proto)) => {
            named(app, proto).ok_or(format!("no cell {app}:{proto} in the sweep"))
        }
        None => Ok(named("SOR", "2L").unwrap_or(&done[0])),
    }
    .and_then(|cell| obsout::export_trace(&results, cell));
    match exported {
        Ok((path, events)) => println!(
            "obsgate trace: {} lints clean ({events} duration events)",
            path.display()
        ),
        Err(e) => ctx.fail(format!("obsgate trace: {e}")),
    }
}
