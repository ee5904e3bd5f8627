//! `xbackend`: does 2L still win when the paper's Memory Channel is
//! swapped for a 2026-class fabric? See DESIGN.md §14. `--backend` does not
//! apply here — every phase covers all three fabrics.
//!
//! 1. **Golden preflight.** Routing the Memory Channel through the
//!    `Transport` trait must leave the paper's artifacts byte-identical.
//! 2. **Replay fingerprints.** The scripted single-threaded protocol replay
//!    ([`replay_on`]) across all four paper protocols × all three backends,
//!    twice each: both passes must agree exactly (per-backend determinism),
//!    and the direct-read backends (`rdma`, `cxl`) must report strictly
//!    fewer `remote_requests` than `mc` per protocol — a page fetch on a
//!    remote-read fabric is a pull, not a request/reply round trip.
//! 3. **Cross-backend sweep.** The full paper suite (test scale) plus the
//!    two service apps × the four paper protocols × all three backends at
//!    4:2, auditor and observability on. Every cell must audit clean and
//!    reproduce the `mc` checksum for its app (virtual time moves across
//!    fabrics; answers must not), and per protocol the aggregate
//!    `remote_requests` on `rdma`/`cxl` must stay strictly below `mc`'s.
//!    Per-cell virtual time in the parallel sweep is interleaving-noisy, so
//!    the totals and Figure-7 breakdowns are recorded, not gated.
//!
//! `--seed` re-seeds the service-app traces.

use cashmere_apps::{suite, Benchmark, Scale};
use cashmere_core::{Backend, ProtocolKind};
use cashmere_obs::{Fig7Breakdown, Fig7Cat};

use super::service::service_apps;
use crate::gate::{matrix, run_cells, Ctx, Gate, Phase, GOLDEN};
use crate::golden::replay_on;
use crate::{json_arr, json_map, Obj};

/// The sweep topology: 4 processors on 2 nodes, so every cell crosses a
/// node boundary (same as the soak and service gates).
const CONFIG: (usize, usize) = (4, 2);

/// The gate.
pub const GATE: Gate = Gate {
    name: "xbackend",
    doc: true,
    phases: &[
        GOLDEN,
        Phase {
            name: "replay fingerprints",
            mc_only: false,
            run: replay_fingerprints,
        },
        Phase {
            name: "cross-backend sweep",
            mc_only: false,
            run: |ctx| {
                let mut apps = suite(Scale::Test);
                let (kv, bank) = service_apps(Scale::Test, ctx.args.seed);
                apps.push(Box::new(kv));
                apps.push(Box::new(bank));
                sweep(ctx, &apps);
            },
        },
    ],
};

/// Direct-read backends must issue strictly fewer request/reply round
/// trips than the Memory Channel: a page fetch is a remote read, not a
/// request + reply-write. `requests[protocol][backend]`, indexed like
/// [`ProtocolKind::PAPER_FOUR`] and [`Backend::ALL`].
fn round_trip_check(ctx: &mut Ctx, what: &str, requests: &[[u64; 3]; 4]) {
    for (protocol, [mc, rdma, cxl]) in ProtocolKind::PAPER_FOUR.into_iter().zip(requests) {
        for (label, direct) in [("rdma", rdma), ("cxl", cxl)] {
            if direct >= mc {
                ctx.fail(format!(
                    "xbackend {what} {:4}: {label} remote_requests {direct} not < mc {mc}",
                    protocol.label()
                ));
            }
        }
    }
}

/// Phase 2: deterministic replay fingerprints per backend × protocol.
fn replay_fingerprints(ctx: &mut Ctx) {
    let mut records = Vec::new();
    let mut requests = [[0u64; 3]; 4];
    for (bi, backend) in Backend::ALL.into_iter().enumerate() {
        for (pi, protocol) in ProtocolKind::PAPER_FOUR.into_iter().enumerate() {
            let (clocks, counters, _) = replay_on(backend, protocol, None, false, false);
            let (again, counters2, _) = replay_on(backend, protocol, None, false, false);
            let deterministic = clocks == again && counters == counters2;
            if !deterministic {
                ctx.fail(format!(
                    "xbackend replay {:4} {:4}: NONDETERMINISTIC — two passes disagree",
                    backend.label(),
                    protocol.label()
                ));
            }
            let total: u64 = clocks.iter().sum();
            let rr = counters.remote_requests;
            requests[pi][bi] = rr;
            println!(
                "xbackend replay {:4} {:4} total_ns={total:12} remote_requests={rr:5} \
                 deterministic={deterministic}",
                backend.label(),
                protocol.label(),
            );
            records.push(
                Obj::new()
                    .str("backend", backend.label())
                    .str("protocol", protocol.label())
                    .val("total_ns", total)
                    .val("remote_requests", rr)
                    .val("deterministic", deterministic)
                    .finish(),
            );
        }
    }
    round_trip_check(ctx, "replay", &requests);
    ctx.doc.val("replay", json_arr(records));
}

/// Phase 3: `apps` × protocols × backends with audits, checksum checks
/// against the `mc` cells, aggregate round-trip checks, and per-backend
/// virtual-time totals.
pub fn sweep(ctx: &mut Ctx, apps: &[Box<dyn Benchmark>]) {
    // Backends outermost, `mc` first: its checksums are the oracle for
    // every other cell (answers are fabric-independent even though virtual
    // time is not).
    let cells: Vec<_> = Backend::ALL
        .into_iter()
        .flat_map(|backend| {
            matrix(apps, &ProtocolKind::PAPER_FOUR, |p| {
                ctx.spec(p, CONFIG.0, CONFIG.1)
                    .with_transport(backend)
                    .with_audit(true)
                    .with_obs(true)
            })
        })
        .collect();
    let mut mc_checksums: Vec<(&str, u64)> = Vec::new();
    // Per [protocol][backend]: suite virtual time, Figure-7 breakdown,
    // remote_requests.
    let mut vt = [[0u64; 3]; 4];
    let mut fig7 = [[Fig7Breakdown::default(); 3]; 4];
    let mut requests = [[0u64; 3]; 4];
    run_cells(&cells, ctx.jobs, |cell, _| {
        let spec = &cell.cell.spec;
        let report = &cell.outcome.report;
        let pi = ProtocolKind::PAPER_FOUR
            .iter()
            .position(|p| *p == spec.protocol)
            .expect("sweep protocol");
        let bi = Backend::ALL
            .iter()
            .position(|b| *b == spec.backend)
            .expect("sweep backend");
        if !mc_checksums.iter().any(|(a, _)| *a == cell.app()) {
            mc_checksums.push((cell.app(), cell.outcome.checksum));
        }
        let want = mc_checksums.iter().find(|(a, _)| *a == cell.app());
        let (checksum_ok, audit_clean) = ctx.check(&cell, want.expect("just pushed").1);
        vt[pi][bi] += report.exec_ns;
        fig7[pi][bi].merge(&report.obs.as_ref().expect("obs requested").fig7);
        let c = report.counters;
        requests[pi][bi] += c.remote_requests;
        println!(
            "xbackend sweep {:4} {} exec={:10.4}ms remote_requests={:6} \
             checksum_ok={checksum_ok} audit_clean={audit_clean}",
            spec.backend.label(),
            cell.label(),
            report.exec_secs() * 1e3,
            c.remote_requests,
        );
        ctx.cells.push(
            Obj::new()
                .str("backend", spec.backend.label())
                .str("app", cell.app())
                .str("protocol", cell.protocol())
                .f64("exec_secs", report.exec_secs())
                .val("remote_requests", c.remote_requests)
                .val("page_transfers", c.page_transfers)
                .val("data_bytes", c.data_bytes)
                .val("checksum_ok", checksum_ok)
                .val("audit_clean", audit_clean)
                .finish(),
        );
    });
    round_trip_check(ctx, "sweep aggregate", &requests);

    // Per-backend ranking: which protocol finishes the whole suite fastest
    // on this fabric?
    let mut totals = Vec::new();
    for (bi, backend) in Backend::ALL.into_iter().enumerate() {
        let best = (0..4).min_by_key(|&pi| vt[pi][bi]).expect("four protocols");
        println!(
            "xbackend {:4}: fastest protocol {} (suite total {:.4}ms; 2L total {:.4}ms)",
            backend.label(),
            ProtocolKind::PAPER_FOUR[best].label(),
            vt[best][bi] as f64 / 1e6,
            vt[0][bi] as f64 / 1e6,
        );
        for (pi, protocol) in ProtocolKind::PAPER_FOUR.into_iter().enumerate() {
            let breakdown = Fig7Cat::ALL.map(|cat| (cat.label(), fig7[pi][bi].get(cat)));
            totals.push(
                Obj::new()
                    .str("backend", backend.label())
                    .str("protocol", protocol.label())
                    .val("suite_total_ns", vt[pi][bi])
                    .val("remote_requests", requests[pi][bi])
                    .val("fastest", pi == best)
                    .val("fig7", json_map(breakdown))
                    .finish(),
            );
        }
    }
    let backends = Backend::ALL.map(|b| format!("\"{}\"", b.label()));
    ctx.doc
        .str("config", &format!("{}:{}", CONFIG.0, CONFIG.1))
        .val("backends", json_arr(backends))
        .val("totals", json_arr(totals));
}
