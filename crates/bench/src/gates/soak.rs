//! `soak`: the fixed-seed fault-injection campaign.
//!
//! 1. **Zero-fault identity.** An installed-but-empty [`FaultPlan`] with
//!    the audit recorder on must leave every deterministic golden probe
//!    byte-identical, every trace clean and the plan's fault count zero:
//!    the interposition points and the recovery bookkeeping are charge-free
//!    when no rule fires.
//! 2. **Fault matrix.** The application suite × {2L, 1LD} × three fault
//!    plans at nonzero rates. Every cell must finish with the checksum of a
//!    fault-free run at the same configuration and a clean audit —
//!    including the recovery invariants (timeouts satisfied or retried to
//!    success, duplicates suppressed without state change, write-notice
//!    conservation under loss and duplication) — and the campaign must show
//!    injected faults under every plan and recovery activity under the
//!    plans that reach the protocol. The same seed always yields the same
//!    fault schedule in virtual time, so a failing campaign replays
//!    bit-for-bit.
//!
//! [`FaultPlan`]: cashmere_core::FaultPlan

use cashmere_apps::{suite, Benchmark, Scale};
use cashmere_core::ProtocolKind;

use super::{DUPLICATED_TRANSFERS, LOSSY_LINK, LOST_REQUESTS};
use crate::gate::{
    collect_cells, cross_plans, matrix, run_cells, Ctx, Gate, Golden, Phase, PlanFn,
};
use crate::{json_map, Obj};

/// The matrix topology: 4 processors on 2 nodes — small enough to soak the
/// whole suite quickly, large enough that every cell does remote fetches,
/// twins/diffs, and (superpage-split apps) exclusive breaks.
const CONFIG: (usize, usize) = (4, 2);

/// The two protocols soaked: the paper's primary (2L) and the one-level
/// diff baseline, which share the recovery machinery but split protocol
/// traffic across node boundaries very differently.
const PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::TwoLevel, ProtocolKind::OneLevelDiff];

/// The three plan flavors — ≥3 fault kinds at nonzero rates between them —
/// and whether each exercises the protocol-level recovery paths (if so the
/// campaign must show recovery activity under it).
const PLANS: [((&str, PlanFn), bool); 3] = [
    (LOST_REQUESTS, true),
    (DUPLICATED_TRANSFERS, true),
    (LOSSY_LINK, false),
];

/// The gate.
pub const GATE: Gate = Gate {
    name: "soak",
    doc: true,
    phases: &[
        Phase {
            name: "zero-fault golden identity",
            mc_only: true,
            run: |ctx| {
                ctx.golden(Golden::EmptyPlan);
            },
        },
        Phase {
            name: "fault matrix",
            mc_only: false,
            run: |ctx| fault_matrix(ctx, &suite(Scale::Test)),
        },
    ],
};

/// The campaign over `apps`.
pub fn fault_matrix(ctx: &mut Ctx, apps: &[Box<dyn Benchmark>]) {
    let spec = |p| ctx.spec(p, CONFIG.0, CONFIG.1);
    // Reference checksums: a fault-free run at the *same* configuration —
    // every app's checksum is topology-independent except Em3d's, whose
    // graph depends on the processor count (as in Split-C), so the gate
    // asks only "faults change nothing" at fixed width.
    let reference = matrix(apps, &[ProtocolKind::TwoLevel], spec);
    let reference = collect_cells(&reference, ctx.jobs);
    let cells = cross_plans(
        matrix(apps, &PROTOCOLS, |p| {
            spec(p).with_audit(true).with_obs(ctx.args.obs)
        }),
        &PLANS.map(|(plan, _)| plan),
    );

    // Campaign-wide (faults injected, recovery actions), per plan flavor.
    let mut totals = [(0u64, 0u64); PLANS.len()];
    run_cells(&cells, ctx.jobs, |cell, _| {
        let want = reference
            .iter()
            .find(|r| r.app() == cell.app())
            .expect("reference sweep covered every app")
            .outcome
            .checksum;
        let (checksum_ok, audit_clean) = ctx.check(&cell, want);
        let recovery = &cell.outcome.report.recovery;
        let t = recovery.total();
        let pi = PLANS
            .iter()
            .position(|((name, _), _)| *name == cell.cell.tag)
            .expect("cell plan is one of PLANS");
        totals[pi].0 += recovery.faults_total();
        totals[pi].1 += t.total();
        println!(
            "{} faults={:6} recovered={:6} checksum_ok={checksum_ok} audit_clean={audit_clean}",
            cell.label(),
            recovery.faults_total(),
            t.total(),
        );
        ctx.cells.push(
            Obj::new()
                .str("experiment", "soak")
                .val("seed", cell.cell.spec.seed)
                .str("app", cell.app())
                .str("protocol", cell.protocol())
                .str("plan", cell.cell.tag)
                .f64("exec_secs", cell.outcome.report.exec_secs())
                .val("checksum_ok", checksum_ok)
                .val("audit_clean", audit_clean)
                .val(
                    "recovery",
                    Obj::new()
                        .val("fetch_timeouts", t.fetch_timeouts)
                        .val("fetch_retries", t.fetch_retries)
                        .val("break_timeouts", t.break_timeouts)
                        .val("break_retries", t.break_retries)
                        .val("duplicates_dropped", t.duplicates_dropped)
                        .finish(),
                )
                .val("faults", json_map(recovery.faults_injected.iter().copied()))
                .finish(),
        );
    });
    ctx.doc.str("config", &format!("{}:{}", CONFIG.0, CONFIG.1));

    for (((name, _), expects_recovery), (faults, recovered)) in PLANS.into_iter().zip(totals) {
        if faults == 0 {
            ctx.fail(format!(
                "soak plan {name}: campaign injected zero faults — rates too low or \
                 interposition points dead"
            ));
        }
        if expects_recovery && recovered == 0 {
            ctx.fail(format!(
                "soak plan {name}: campaign shows zero recovery activity — \
                 timeouts/retries/duplicate suppression never engaged"
            ));
        }
    }
}
