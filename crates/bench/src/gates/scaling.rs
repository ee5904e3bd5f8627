//! `scaling`: the scaling curve past the paper's 8×4 (DESIGN.md §12).
//!
//! The paper's prototype tops out at eight 4-processor nodes. After the
//! golden preflight (scaling work must not move the default 8×4 replicated
//! path by a byte) this gate sweeps SOR and Gauss × the four protocols
//! across 8×4 → 16×8 → 32×8 → 64×16 under both directory layouts:
//!
//! * `replicated` — the paper's per-node full replica (the default
//!   [`DirectoryMode::LockFree`]), whose update broadcast and memory grow
//!   linearly in protocol-node count;
//! * `sparse` — the home-sharded directory, O(pages) total memory and O(1)
//!   update messages.
//!
//! Every cell is audited and its checksum compared with the app's
//! sequential run; the gate also fails if the largest shape completes
//! fewer than two applications under 2L, or if the sparse directory's
//! traffic does not grow sub-linearly against replication (see [`ladder`]).

use cashmere_apps::{Benchmark, Gauss, Scale, Sor};
use cashmere_core::directory::DirUsage;
use cashmere_core::{DirectoryMode, ProtocolKind, RunSpec, Topology};

use crate::gate::{run_cells, Cell, Ctx, Gate, Phase, GOLDEN};
use crate::{config_label, json_arr, sequential, Obj};

/// The scaling ladder, in `Topology`'s `nodes x procs/node` grammar.
pub const SHAPES: [&str; 4] = ["8x4", "16x8", "32x8", "64x16"];

/// The gate.
pub const GATE: Gate = Gate {
    name: "scaling",
    doc: true,
    phases: &[
        GOLDEN,
        Phase {
            name: "ladder",
            mc_only: false,
            run: |ctx| ladder(ctx, &SHAPES),
        },
    ],
};

fn mode_label(mode: DirectoryMode) -> &'static str {
    match mode {
        DirectoryMode::Sparse => "sparse",
        _ => "replicated",
    }
}

/// One point of a sub-linearity curve.
struct Point {
    pnodes: usize,
    sparse_bytes: u64,
    ratio: f64,
    sparse_per_update: f64,
    repl_per_update: f64,
}

/// Sweeps shape × protocol × directory layout × app over `shapes` (at least
/// two, smallest first) and checks the scaling claims.
pub fn ladder(ctx: &mut Ctx, shapes: &[&str]) {
    let topos: Vec<Topology> = shapes
        .iter()
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}")))
        .collect();
    // One nearest-neighbor app (SOR), one broadcast-heavy (Gauss).
    // `Scale::Test` instances stay sub-second per cell even at 64×16, where
    // idle bands just ride the barriers.
    let apps: [Box<dyn Benchmark>; 2] = [
        Box::new(Sor::new(Scale::Test)),
        Box::new(Gauss::new(Scale::Test)),
    ];
    // Sequential runs: speedup denominator + checksum oracle.
    let seq = apps.each_ref().map(|a| sequential(a.as_ref()));
    let modes = [DirectoryMode::LockFree, DirectoryMode::Sparse];
    let mut cells = Vec::new();
    for &t in &topos {
        for p in ProtocolKind::PAPER_FOUR {
            for m in modes {
                for a in &apps {
                    let spec = RunSpec::new(t, p)
                        .with_directory(m)
                        .with_transport(ctx.args.backend)
                        .with_seed(ctx.args.seed)
                        .with_audit(true);
                    cells.push(Cell::new(a.as_ref(), spec));
                }
            }
        }
    }
    println!("scaling: {} cells, {} jobs", cells.len(), ctx.jobs);

    // Per cell, what the checks below read: directory accounting off the
    // finished engine, and whether the cell completed cleanly.
    let mut results: Vec<(DirUsage, bool)> = Vec::with_capacity(cells.len());
    // Host wall per shape, summed over its cells. Reported, never checked:
    // it is a host clock, and cells share the machine `jobs` at a time.
    let mut shape_wall_ms = vec![0.0; topos.len()];
    run_cells(&cells, ctx.jobs, |cell, cluster| {
        let spec = &cell.cell.spec;
        let u = cluster.engine().directory().usage();
        let ai = apps.iter().position(|a| a.name() == cell.app());
        let seq = &seq[ai.expect("cell app is one of apps")];
        let (checksum_ok, audit_clean) = ctx.check(&cell, seq.checksum);
        let report = &cell.outcome.report;
        let pnodes = spec.protocol.node_map().protocol_nodes(&spec.topology);
        let speedup = seq.report.exec_ns as f64 / report.exec_ns.max(1) as f64;
        let wall_ms = cell.wall_secs * 1e3;
        let shape = topos.iter().position(|&t| t == spec.topology);
        shape_wall_ms[shape.expect("cell shape is one of topos")] += wall_ms;
        println!(
            "{:7} {:10} {} pnodes={pnodes:4} exec={:9.4}s speedup={speedup:6.2} wall={wall_ms:7.1}ms \
             proto_bytes={:10} dir_mem={:8}B audit_clean={audit_clean} checksum_ok={checksum_ok}",
            spec.topology.to_string(),
            mode_label(spec.directory),
            cell.label(),
            report.exec_secs(),
            u.protocol_bytes(),
            u.mc_bytes + u.cache_bytes,
        );
        ctx.cells.push(
            Obj::new()
                .str("experiment", "scaling")
                .val("seed", spec.seed)
                .str("app", cell.app())
                .str("protocol", cell.protocol())
                .str("directory", mode_label(spec.directory))
                .str("shape", &spec.topology.to_string())
                .str("config", &config_label(&spec.topology))
                .val("pnodes", pnodes)
                .f64("exec_secs", report.exec_secs())
                .f64("speedup", speedup)
                .f64("wall_ms", wall_ms)
                .val("checksum_ok", checksum_ok)
                .val("audit_clean", audit_clean)
                .val("protocol_bytes", u.protocol_bytes())
                .val("dir_updates", u.updates)
                .val("dir_update_bytes", u.update_bytes)
                .val("dir_probes", u.probes)
                .val("dir_probe_bytes", u.probe_bytes)
                .val("dir_misses", u.misses)
                .val("dir_miss_bytes", u.miss_bytes)
                .val("dir_mc_bytes", u.mc_bytes)
                .val("dir_cache_bytes", u.cache_bytes)
                .finish(),
        );
        results.push((u, audit_clean));
    });
    let cell_of = |t: Topology, p: ProtocolKind, m: DirectoryMode, app: &str| {
        let at = |c: &Cell| c.spec.topology == t && c.spec.protocol == p && c.spec.directory == m;
        let i = cells.iter().position(|c| at(c) && c.app.name() == app);
        results[i.expect("full matrix")]
    };

    // The largest shape must complete at least two applications under 2L.
    let largest = *topos.last().expect("at least one shape");
    let clean_at_largest = apps
        .iter()
        .filter(|a| {
            modes
                .iter()
                .any(|&m| cell_of(largest, ProtocolKind::TwoLevel, m, a.name()).1)
        })
        .count();
    if clean_at_largest < 2 {
        ctx.fail(format!(
            "only {clean_at_largest} app(s) completed cleanly under 2L at {largest}"
        ));
    }

    // Sub-linearity: per (app, protocol), two checks prove the sparse
    // directory's traffic grows sub-linearly in node count vs replication.
    //
    // 1. Per-update fan-out bytes (deterministic by construction, immune
    //    to the host-scheduling jitter in *how many* updates an app
    //    issues): replicated delivery costs 8·(pnodes−1) bytes per update
    //    and must grow with the cluster; a sparse update is a single
    //    bounded home-shard message and must stay flat.
    // 2. End-to-end, the sparse/replicated *total* protocol-byte ratio
    //    must shrink from the smallest to the largest cluster. Totals are
    //    workload-noisy between adjacent shapes (Gauss's lock hand-offs
    //    reshuffle retries run to run), so this is an endpoint check, not
    //    a per-step one.
    let mut curves = Vec::new();
    for p in ProtocolKind::PAPER_FOUR {
        for a in apps.iter().map(|a| a.name()) {
            let curve: Vec<Point> = topos
                .iter()
                .map(|&t| {
                    let (sparse, _) = cell_of(t, p, DirectoryMode::Sparse, a);
                    let (repl, _) = cell_of(t, p, DirectoryMode::LockFree, a);
                    Point {
                        pnodes: p.node_map().protocol_nodes(&t),
                        sparse_bytes: sparse.protocol_bytes(),
                        ratio: sparse.protocol_bytes() as f64 / repl.protocol_bytes().max(1) as f64,
                        sparse_per_update: sparse.update_bytes as f64
                            / sparse.updates.max(1) as f64,
                        repl_per_update: repl.update_bytes as f64 / repl.updates.max(1) as f64,
                    }
                })
                .collect();
            // A sparse update never exceeds one 12-byte shard message;
            // replicated fan-out must grow with the cluster.
            let flat = curve.iter().all(|pt| pt.sparse_per_update <= 12.0);
            let growing = curve
                .windows(2)
                .all(|w| w[1].repl_per_update > w[0].repl_per_update);
            let (first, last) = (&curve[0], &curve[curve.len() - 1]);
            let shrinking = last.ratio < first.ratio;
            let points: Vec<String> = curve
                .iter()
                .map(|pt| {
                    format!(
                        "n={}:{:.1}B/upd vs {:.1} (ratio {:.4})",
                        pt.pnodes, pt.sparse_per_update, pt.repl_per_update, pt.ratio
                    )
                })
                .collect();
            println!("sublinear {:4} {a:6}  {}", p.label(), points.join("  "));
            if !flat {
                ctx.fail(format!(
                    "sparse per-update bytes exceed one shard message for {} {a}",
                    p.label()
                ));
            }
            if !growing {
                ctx.fail(format!(
                    "replicated per-update fan-out not growing with node count for {} {a}",
                    p.label()
                ));
            }
            if !shrinking {
                ctx.fail(format!(
                    "sparse/replicated byte ratio did not shrink from {} to {} nodes for {} {a}",
                    first.pnodes,
                    last.pnodes,
                    p.label()
                ));
            }
            let points = curve.iter().map(|pt| {
                Obj::new()
                    .val("pnodes", pt.pnodes)
                    .val("sparse_bytes", pt.sparse_bytes)
                    .f64("sparse_over_replicated", pt.ratio)
                    .f64("sparse_bytes_per_update", pt.sparse_per_update)
                    .f64("replicated_bytes_per_update", pt.repl_per_update)
                    .finish()
            });
            curves.push(
                Obj::new()
                    .str("protocol", p.label())
                    .str("app", a)
                    .val("curve", json_arr(points))
                    .val("sparse_per_update_flat", flat)
                    .val("replicated_per_update_growing", growing)
                    .val("ratio_shrinking", shrinking)
                    .finish(),
            );
        }
    }
    let walls: Vec<String> = topos
        .iter()
        .zip(&shape_wall_ms)
        .map(|(t, ms)| format!("{t}: {ms:.0} ms"))
        .collect();
    println!("host wall by shape (all cells)  {}", walls.join("  "));
    ctx.doc
        .val("shapes", json_arr(topos.iter().map(|t| format!("\"{t}\""))))
        .val("node_counts", json_arr(topos.iter().map(Topology::nodes)))
        .val(
            "apps",
            json_arr(apps.iter().map(|a| format!("\"{}\"", a.name()))),
        )
        .val("sublinearity", json_arr(curves));
}
