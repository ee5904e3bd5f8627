//! `service`: the two trace-driven service applications — `KvService` and
//! `BankOltp` — gated the way the paper apps are (DESIGN.md §13).
//!
//! 1. **Golden preflight**: the service subsystem must not move a byte of
//!    the paper artifacts.
//! 2. **Determinism.** The same seed must reproduce a byte-identical trace
//!    ([`Trace::to_bytes`]) and, sequentially (1:1, uninstrumented), an
//!    identical virtual time and checksum; checksums must equal the
//!    host-side expectations (KV: sequential trace replay; Bank: the
//!    conserved ledger total).
//! 3. **Audit + heat sweep.** Both apps × all four paper protocols at 4:2
//!    with the auditor and observability on: every cell must audit clean,
//!    reproduce its expected checksum and record request sojourns, and the
//!    per-page fault heat of a Zipf-skewed KV run must be visibly more
//!    concentrated than a uniform (θ = 0) control — the configured skew has
//!    to show up in the pages the protocols actually fight over.
//! 4. **Fault soak.** Both apps × all four protocols × two nonzero fault
//!    plans, audit on: checksums must match the fault-free expectation,
//!    audits must stay clean, and every plan must inject faults.
//!
//! `--seed` re-seeds the workload traces and the fault plans.
//!
//! [`Trace::to_bytes`]: cashmere_workload::Trace::to_bytes

use cashmere_apps::{BankOltp, Benchmark, KvService, Scale};
use cashmere_core::ProtocolKind;
use cashmere_workload::Trace;

use super::{LOSSY_LINK, LOST_REQUESTS};
use crate::gate::{collect_cells, cross_plans, matrix, run_cells, Cell, Ctx, Gate, Phase, GOLDEN};
use crate::{json_arr, sequential, Obj};

/// The sweep/soak topology: 4 processors on 2 nodes (same as the soak
/// gate — every cell crosses node boundaries).
const CONFIG: (usize, usize) = (4, 2);

/// Hot pages reported per cell and used by the skew check.
const HEAT_TOP_K: usize = 4;

/// The skewed KV heat concentration must beat the uniform control's by at
/// least this factor (empirically ~2× at θ = 0.99; see DESIGN.md §13).
const HEAT_SKEW_FACTOR: f64 = 1.2;

/// The gate.
pub const GATE: Gate = Gate {
    name: "service",
    doc: true,
    phases: &[
        GOLDEN,
        Phase {
            name: "trace and sequential determinism",
            mc_only: false,
            run: determinism,
        },
        Phase {
            name: "audit + heat sweep",
            mc_only: false,
            run: |ctx| {
                audit_sweep(ctx);
                heat_skew(ctx);
            },
        },
        Phase {
            name: "fault soak",
            mc_only: false,
            run: fault_soak,
        },
    ],
};

/// The two service apps at `scale`, traces re-seeded from `seed` (distinct
/// streams per app).
pub fn service_apps(scale: Scale, seed: u64) -> (KvService, BankOltp) {
    let mut kv = KvService::new(scale);
    kv.spec.seed = seed;
    let mut bank = BankOltp::new(scale);
    bank.spec.seed = seed ^ 0x0BA2_0172;
    (kv, bank)
}

/// The test-scale apps boxed for [`matrix`], with the checksum each must
/// compute under any schedule, protocol, or fault plan.
struct Expected {
    apps: Vec<Box<dyn Benchmark>>,
    checksums: [(&'static str, u64); 2],
}

impl Expected {
    fn new(seed: u64) -> Self {
        let (kv, bank) = service_apps(Scale::Test, seed);
        let checksums = [
            (kv.name(), kv.expected_checksum()),
            (bank.name(), bank.expected_total()),
        ];
        Self {
            apps: vec![Box::new(kv), Box::new(bank)],
            checksums,
        }
    }

    fn of(&self, app: &str) -> u64 {
        let found = self.checksums.iter().find(|(n, _)| *n == app);
        found.expect("a service app").1
    }
}

/// `[[page, heat], …]`.
fn hot_pages_json(hot: &[(usize, u64)]) -> String {
    json_arr(hot.iter().map(|(page, heat)| format!("[{page},{heat}]")))
}

/// Phase 2: byte-identical traces and identical sequential virtual time
/// under the same seed; checksums equal to the host-side expectations.
fn determinism(ctx: &mut Ctx) {
    let seed = ctx.args.seed;
    let (kv, bank) = service_apps(Scale::Test, seed);
    let (kv2, bank2) = service_apps(Scale::Test, seed);
    // (app, its trace, the trace regenerated from the same spec, checksum).
    let probes: [(&dyn Benchmark, Trace, Trace, u64); 2] = [
        (&kv, kv.trace(), kv2.trace(), kv.expected_checksum()),
        (&bank, bank.trace(), bank2.trace(), bank.expected_total()),
    ];
    let mut records = Vec::new();
    for (app, trace, again, want) in &probes {
        let name = app.name();
        let trace_ok = trace.to_bytes() == again.to_bytes();
        if !trace_ok {
            ctx.fail(format!(
                "service determinism {name}: TRACE not byte-identical"
            ));
        }
        let a = sequential(*app);
        let b = sequential(*app);
        let vt_ok = a.report.exec_ns == b.report.exec_ns && a.checksum == b.checksum;
        if !vt_ok {
            ctx.fail(format!(
                "service determinism {name}: sequential VT {} vs {} (checksums {} vs {})",
                a.report.exec_ns, b.report.exec_ns, a.checksum, b.checksum
            ));
        }
        let checksum_ok = a.checksum == *want;
        if !checksum_ok {
            ctx.fail(format!(
                "service determinism {name}: checksum {} != host expectation {want}",
                a.checksum
            ));
        }
        println!(
            "service determinism {name:4} trace_ok={trace_ok} vt_ok={vt_ok} ({} ns) \
             checksum_ok={checksum_ok}",
            a.report.exec_ns
        );
        records.push(
            Obj::new()
                .str("app", name)
                .str("trace_digest", &format!("{:016x}", trace.digest()))
                .val("trace_ops", trace.ops.len())
                .val("seq_exec_ns", a.report.exec_ns)
                .val("trace_identical", trace_ok)
                .val("vt_identical", vt_ok)
                .val("checksum_ok", checksum_ok)
                .finish(),
        );
    }
    ctx.doc.val("determinism", json_arr(records));
}

/// Phase 3a: audit + checksum sweep across all four protocols with
/// observability on.
fn audit_sweep(ctx: &mut Ctx) {
    let want = Expected::new(ctx.args.seed);
    let cells = matrix(&want.apps, &ProtocolKind::PAPER_FOUR, |p| {
        ctx.spec(p, CONFIG.0, CONFIG.1)
            .with_audit(true)
            .with_obs(true)
    });
    run_cells(&cells, ctx.jobs, |cell, _| {
        let (checksum_ok, audit_clean) = ctx.check(&cell, want.of(cell.app()));
        let obs = cell.outcome.report.obs.as_ref().expect("obs requested");
        let hot = obs.hot_pages(HEAT_TOP_K);
        // Every service request records its arrival-to-completion latency,
        // so an empty histogram means the recording hook fell off the
        // request loop.
        let sj = &obs.metrics.sojourn_ns;
        let (p50, p95, p99) = (sj.quantile(0.50), sj.quantile(0.95), sj.quantile(0.99));
        if sj.count == 0 {
            ctx.fail(format!("{}: EMPTY sojourn histogram", cell.label()));
        }
        println!(
            "{} exec={:9.3}ms checksum_ok={checksum_ok} audit_clean={audit_clean} \
             sojourn p50={p50} p95={p95} p99={p99} ns ({} reqs) hot={hot:?}",
            cell.label(),
            cell.outcome.report.exec_secs() * 1e3,
            sj.count,
        );
        ctx.cells.push(
            Obj::new()
                .str("phase", "sweep")
                .str("app", cell.app())
                .str("protocol", cell.protocol())
                .f64("exec_secs", cell.outcome.report.exec_secs())
                .val("sojourn_count", sj.count)
                .val("sojourn_p50_ns", p50)
                .val("sojourn_p95_ns", p95)
                .val("sojourn_p99_ns", p99)
                .val("checksum_ok", checksum_ok)
                .val("audit_clean", audit_clean)
                .val("hot_pages", hot_pages_json(&hot))
                .finish(),
        );
    });
    ctx.doc.str("config", &format!("{}:{}", CONFIG.0, CONFIG.1));
}

/// Phase 3b: at Bench scale (enough table pages to resolve), the
/// Zipf-skewed KV heat under 2L must concentrate visibly harder than a
/// uniform (θ = 0) control — and the hottest page must sit in the table's
/// head, where [`cashmere_workload::KeyMap::Direct`] puts the popular ranks.
fn heat_skew(ctx: &mut Ctx) {
    let (skewed, _) = service_apps(Scale::Bench, ctx.args.seed);
    let mut uniform = skewed.clone();
    uniform.spec.theta = 0.0;
    let spec = ctx
        .spec(ProtocolKind::TwoLevel, CONFIG.0, CONFIG.1)
        .with_obs(true);
    let cells = [Cell::new(&skewed, spec.clone()), Cell::new(&uniform, spec)];
    // Top-`HEAT_TOP_K` share of total page heat, and the hot pages.
    let shares: Vec<(f64, Vec<(usize, u64)>)> = collect_cells(&cells, ctx.jobs)
        .iter()
        .map(|done| {
            let obs = done.outcome.report.obs.as_ref().expect("obs requested");
            let total: u64 = obs.page_heat.iter().sum();
            assert!(total > 0, "KV heat probe saw zero faults");
            let hot = obs.hot_pages(HEAT_TOP_K);
            let top: u64 = hot.iter().map(|&(_, h)| h).sum();
            (top as f64 / total as f64, hot)
        })
        .collect();
    let (skew_share, skew_hot) = &shares[0];
    let (uniform_share, _) = &shares[1];
    println!(
        "service heat: skewed top-{HEAT_TOP_K} share {skew_share:.3} vs uniform \
         {uniform_share:.3} (hot pages {skew_hot:?})"
    );
    if *skew_share < uniform_share * HEAT_SKEW_FACTOR {
        ctx.fail(format!(
            "service heat: skewed share {skew_share:.3} not >= {HEAT_SKEW_FACTOR}x uniform \
             {uniform_share:.3} — the configured skew is invisible in fault heat"
        ));
    }
    // Under KeyMap::Direct the popular ranks sit at the start of *both*
    // shared structures: the value table (pages 0..table_pages) and the
    // version array right after it. The hottest page must be the head of
    // one of them (the version head packs PAGE_WORDS keys per page, so it
    // often out-heats table page 0, which holds PAGE_WORDS/value_words).
    let table_pages = (skewed.spec.keys * skewed.value_words) / cashmere_core::PAGE_WORDS;
    let head_pages = 2;
    let in_head = |page: usize| page < head_pages || page == table_pages;
    if skew_hot.first().is_none_or(|&(page, _)| !in_head(page)) {
        ctx.fail(format!(
            "service heat: hottest page {:?} is outside the hot head (table pages \
             0..{head_pages} or version page {table_pages})",
            skew_hot.first()
        ));
    }
    ctx.doc.val(
        "heat",
        Obj::new()
            .val("theta", skewed.spec.theta)
            .val(
                &format!("skew_top{HEAT_TOP_K}_share"),
                format!("{skew_share:.4}"),
            )
            .val(
                &format!("uniform_top{HEAT_TOP_K}_share"),
                format!("{uniform_share:.4}"),
            )
            .val("skew_hot_pages", hot_pages_json(skew_hot))
            .finish(),
    );
}

/// Phase 4: nonzero fault plans across all four protocols; checksums and
/// audits must hold, and every plan must actually inject faults.
fn fault_soak(ctx: &mut Ctx) {
    let want = Expected::new(ctx.args.seed);
    let plans = [LOST_REQUESTS, LOSSY_LINK];
    let cells = cross_plans(
        matrix(&want.apps, &ProtocolKind::PAPER_FOUR, |p| {
            ctx.spec(p, CONFIG.0, CONFIG.1).with_audit(true)
        }),
        &plans,
    );
    let mut faults_by_plan = [0u64; 2];
    run_cells(&cells, ctx.jobs, |cell, _| {
        let (checksum_ok, audit_clean) = ctx.check(&cell, want.of(cell.app()));
        let faults = cell.outcome.report.recovery.faults_total();
        faults_by_plan[usize::from(cell.cell.tag != plans[0].0)] += faults;
        println!(
            "{} faults={faults:5} checksum_ok={checksum_ok} audit_clean={audit_clean}",
            cell.label()
        );
        ctx.cells.push(
            Obj::new()
                .str("phase", "soak")
                .str("app", cell.app())
                .str("protocol", cell.protocol())
                .str("plan", cell.cell.tag)
                .f64("exec_secs", cell.outcome.report.exec_secs())
                .val("faults", faults)
                .val("checksum_ok", checksum_ok)
                .val("audit_clean", audit_clean)
                .finish(),
        );
    });
    for ((name, _), faults) in plans.into_iter().zip(faults_by_plan) {
        if faults == 0 {
            ctx.fail(format!(
                "service soak plan {name}: campaign injected zero faults"
            ));
        }
    }
}
