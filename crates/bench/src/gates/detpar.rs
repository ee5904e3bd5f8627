//! `detpar`: the conservative virtual-time engine is parallelism inside a
//! run with zero observable effect (DESIGN.md §15).
//!
//! 1. **Golden preflight**: the default *sequential* engine still
//!    regenerates the paper artifacts byte-for-byte (the det refactor
//!    touched its charge paths).
//! 2. **Worker-identity matrix.** SOR across all four protocols at host
//!    worker counts {1, 2, 8}, each repeated until it has run for
//!    [`MIN_TIMED_SECS`]: every run of every cell must produce a
//!    byte-identical `Report` and an equal checksum, and the same scheduler
//!    traffic (parks, gates, blocks, windows, widened windows, deferred
//!    gates). The mean wall time per run
//!    at each worker count and the workers=1 to wider-count ratios are
//!    recorded with the traffic counts and the wake-ups issued — not gated:
//!    host wall time is noisy, the byte-identity is the hard property.

use cashmere_apps::{Benchmark, Scale, Sor};
use cashmere_core::det::DetStats;
use cashmere_core::ProtocolKind;

use crate::gate::{run_cells, Cell, Ctx, Gate, Phase, GOLDEN};
use crate::{fmt_json_f64, json_arr, json_map, Obj};

/// The matrix topology: 8 processors, 4 per node (2 nodes — every worker
/// count below the proc count forces real multiplexing).
const CONFIG: (usize, usize) = (8, 4);

/// Host worker counts exercised; the first is the base every other run is
/// compared with.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Each (protocol, worker count) cell repeats its run until this much wall
/// time has gone by: a ratio of two single 3 ms runs is noise.
pub const MIN_TIMED_SECS: f64 = 0.5;

/// The gate.
pub const GATE: Gate = Gate {
    name: "detpar",
    doc: true,
    phases: &[
        GOLDEN,
        Phase {
            name: "worker-identity matrix",
            mc_only: false,
            run: |ctx| identity_matrix(ctx, MIN_TIMED_SECS),
        },
    ],
};

/// What one (protocol, worker count) cell's repeats came to.
struct Timed {
    workers: usize,
    runs: usize,
    mean_ms: f64,
    /// Wake-ups issued in the first run (the one count that may depend on
    /// the worker bound).
    wakes: u64,
}

/// `{"w1":..,"w2":..}` over the cells of one protocol.
fn by_workers(cells: &[Timed], value: impl Fn(&Timed) -> String) -> String {
    json_map(cells.iter().map(|c| (format!("w{}", c.workers), value(c))))
}

/// Phase 2, each cell repeated for at least `min_timed_secs`.
pub fn identity_matrix(ctx: &mut Ctx, min_timed_secs: f64) {
    let app = Sor::new(Scale::Test);
    for protocol in ProtocolKind::PAPER_FOUR {
        // What every run of this protocol must reproduce: the Report bytes,
        // the checksum, and the schedule's traffic (`wakes` is not part of
        // the schedule).
        let traffic = |s: &DetStats| (s.parks, s.gates, s.blocks, s.windows, s.widened, s.deferred);
        let mut base = None;
        let mut timed: Vec<Timed> = Vec::new();
        let (mut identical, mut repeat_identical) = (true, true);
        for workers in WORKER_COUNTS {
            let spec = ctx.spec(protocol, CONFIG.0, CONFIG.1);
            let cell = [Cell::new(&app, spec.with_det_parallel(workers))];
            let (mut wall_secs, mut runs, mut wakes) = (0.0, 0, 0);
            while runs == 0 || wall_secs < min_timed_secs {
                // One job: these runs are timed.
                run_cells(&cell, 1, |done, cluster| {
                    let stats = cluster.det_stats();
                    wall_secs += done.wall_secs;
                    runs += 1;
                    let this = (
                        done.outcome.report.to_json(),
                        done.outcome.checksum,
                        traffic(&stats),
                    );
                    let same = this == *base.get_or_insert_with(|| this.clone());
                    // A cell's first run answers "same at this worker
                    // count?", its repeats "same every time?".
                    let verdict = if runs == 1 {
                        wakes = stats.wakes;
                        &mut identical
                    } else {
                        &mut repeat_identical
                    };
                    if !same && *verdict {
                        *verdict = false;
                        ctx.fail(format!(
                            "detpar {:4}: run {runs} at {workers} workers diverges from the base run",
                            protocol.label()
                        ));
                    }
                });
            }
            timed.push(Timed {
                workers,
                runs,
                mean_ms: wall_secs * 1e3 / runs as f64,
                wakes,
            });
        }
        let (_, _, (parks, gates, blocks, windows, widened, deferred)) =
            base.expect("worker counts nonempty");
        let wall1 = timed[0].mean_ms;
        let ratio = |t: &Timed| {
            if t.mean_ms > 0.0 {
                wall1 / t.mean_ms
            } else {
                0.0
            }
        };
        let walls: Vec<String> = timed
            .iter()
            .map(|t| format!("w{}={:.2}ms×{}", t.workers, t.mean_ms, t.runs))
            .collect();
        let widest = timed.last().expect("worker counts nonempty");
        println!(
            "detpar {:4} identical={identical} repeat={repeat_identical} wall {} ratio \
             w1/w{}={:.2} parks={parks} gates={gates} blocks={blocks} windows={windows} \
             widened={widened} deferred={deferred}",
            protocol.label(),
            walls.join(" "),
            widest.workers,
            ratio(widest),
        );
        ctx.cells.push(
            Obj::new()
                .str("protocol", protocol.label())
                .val("identical", identical)
                .val("repeat_identical", repeat_identical)
                .val("wall_ms", by_workers(&timed, |t| fmt_json_f64(t.mean_ms)))
                .val("runs", by_workers(&timed, |t| t.runs.to_string()))
                .val(
                    "par_ratio",
                    by_workers(&timed[1..], |t| fmt_json_f64(ratio(t))),
                )
                .val("parks", parks)
                .val("gates", gates)
                .val("blocks", blocks)
                .val("windows", windows)
                .val("widened", widened)
                .val("deferred", deferred)
                .val("wakes", by_workers(&timed, |t| t.wakes.to_string()))
                .finish(),
        );
    }
    let golden = ctx.golden_verdict();
    ctx.doc
        .str("app", app.name())
        .str("config", &format!("{}:{}", CONFIG.0, CONFIG.1))
        .val("min_timed_secs", min_timed_secs)
        .val("workers", json_arr(WORKER_COUNTS))
        .str("golden", golden);
}
