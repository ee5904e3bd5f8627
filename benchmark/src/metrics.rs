//! Turning passes into metrics: the virtual-time end-to-end numbers, the
//! per-layer ledger of a traced run, and the computed host-time attribution.
//!
//! Units name the clock: `s`, `ms`, `us`, `ns` are host time; `vt_s` and
//! `vt_us` are simulated time, which no hardware has validated.

use cashmere_core::report::Counters;
use cashmere_core::{DirectoryMode, TimeCategory};
use cashmere_obs::fig7::Fig7Cat;
use cashmere_obs::metrics::VtHistogram;

use crate::layers::{median, Row};
use crate::spans::Spans;
use crate::workloads::{run_cell, Cell, Pass, Prepared};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `(vt_exec_s, vt_speedup)`: simulated seconds summed over the cells whose
/// virtual time the system sets, and the geometric mean of their speedups
/// over the sequential run (Figure 7's quantity). Each cell contributes its
/// median over the passes — the same value in every pass on the det engine,
/// a damped one on the free-running engine.
pub fn virtual_time(p: &Prepared, passes: &[Pass]) -> (f64, f64) {
    let (mut sum_ns, mut log_speedup, mut n) = (0.0, 0.0, 0u32);
    for (i, cell) in p.cells.iter().enumerate() {
        let Some(seq_vt) = cell.seq_vt else { continue };
        let mut vts: Vec<f64> = passes
            .iter()
            .filter_map(|pass| pass.runs[i].vt_ns)
            .map(|ns| ns as f64)
            .collect();
        if vts.is_empty() {
            continue; // panicked every time; counted as failed
        }
        let vt = median(&mut vts);
        sum_ns += vt;
        log_speedup += (seq_vt as f64 / vt).ln();
        n += 1;
    }
    (sum_ns / 1e9, (log_speedup / f64::from(n.max(1))).exp())
}

/// The det rows that need runs of their own, from a traced run.
#[derive(Default)]
pub struct DetRows {
    /// Wall of the workload's one-worker det cells over the wall of the same
    /// cells on the default engine.
    pub slowdown_x: f64,
    /// Wall of the same cells with every CPU allowed over their wall
    /// confined to one (`affinity.rs`).
    pub unpinned_x: f64,
    /// Wall at one host worker over wall at two, same cell.
    pub par_ratio_w2: f64,
    /// Wall of SOR 2L on 64 processors under the det engine.
    pub sor_16x4_s: f64,
}

/// All zero on a workload without det cells: the det layer does no work
/// there (README.md, prediction table).
pub fn det_rows(p: &Prepared, plain: &Pass, spans: &Spans) -> DetRows {
    let mut rows = DetRows::default();
    let (mut det_s, mut free_s, mut unpinned_s) = (0.0, 0.0, 0.0);
    for (i, cell) in p.cells.iter().enumerate() {
        if let Some(j) = cell.same_report_as {
            rows.par_ratio_w2 = plain.runs[j].wall_s / plain.runs[i].wall_s;
        }
        if cell.spec.det_workers != Some(1) {
            continue;
        }
        let mut free = cell.clone();
        free.spec.det_workers = None;
        let unpinned = Cell {
            confine: false,
            ..cell.clone()
        };
        det_s += plain.runs[i].wall_s;
        free_s += run_cell(p, &free, i, false, spans).wall_s;
        unpinned_s += run_cell(p, &unpinned, i, false, spans).wall_s;
    }
    if det_s > 0.0 {
        rows.slowdown_x = det_s / free_s;
        rows.unpinned_x = unpinned_s / det_s;
    }
    if let Some(probe) = &p.probe {
        rows.sor_16x4_s = run_cell(p, probe, p.cells.len(), false, spans).wall_s;
    }
    rows
}

/// The per-layer ledger of a traced run. Counts, virtual-time shares and the
/// service rows come from `observed` (the pass with obs on), host times from
/// `plain` and from `rows`. A layer the workload does not exercise reports 0.
/// Also returns whether the Figure-7 identity held on every cell.
pub fn per_layer(
    p: &Prepared,
    plain: &Pass,
    observed: &Pass,
    rows: &[Row],
    det: &DetRows,
) -> (Vec<Metric>, bool) {
    let ns = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("layers.rs has no row {name}"))
            .ns
    };
    let mut m: Vec<Metric> = rows
        .iter()
        .map(|r| Metric::new(r.name, r.ns, "ns"))
        .collect();
    let mut count = |name: &str, v: f64, unit: &'static str| m.push(Metric::new(name, v, unit));

    // --- counts, summed over the observed pass --------------------------
    let mut c = Counters::default();
    let mut fig6 = [0u64; 5];
    let mut fig7 = [0u64; 5];
    let mut links: Vec<u64> = Vec::new();
    let (mut dir_updates, mut dir_bytes, mut dir_mem, mut dir_ns) = (0u64, 0u64, 0u64, 0.0);
    let (mut spans_dropped, mut audit_events) = (0u64, 0u64);
    let (mut injected, mut retries) = (0u64, 0u64);
    let mut identity_ok = true;
    for (cell, run) in p.cells.iter().zip(&observed.runs) {
        let Some(out) = &run.out else { continue };
        let r = &out.report;
        add_counters(&mut c, &r.counters);
        for (slot, cat) in fig6.iter_mut().zip(TimeCategory::ALL) {
            *slot += r.breakdown.get(cat);
        }
        let obs = r.obs.as_ref().expect("the observed pass runs with obs on");
        for (slot, cat) in fig7.iter_mut().zip(Fig7Cat::ALL) {
            *slot += obs.fig7.get(cat);
        }
        identity_ok &= obs.fig7.total() == r.breakdown.total();
        if links.len() < obs.links.len() {
            links.resize(obs.links.len(), 0);
        }
        for (slot, l) in links.iter_mut().zip(&obs.links) {
            *slot += l.bytes;
        }
        spans_dropped += obs.spans_dropped;
        dir_updates += out.dir.updates;
        dir_bytes += out.dir.update_bytes;
        dir_mem = dir_mem.max(out.dir.mc_bytes + out.dir.cache_bytes);
        dir_ns += out.dir.updates as f64
            * if cell.spec.directory == DirectoryMode::Sparse {
                ns("directory.update_sparse_ns")
            } else {
                ns("directory.update_lockfree_ns")
            };
        audit_events += out.audit_events;
        injected += r.recovery.faults_total();
        let rec = r.recovery.total();
        retries += rec.fetch_retries + rec.break_retries;
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    count("vmpage.twin_creations", c.twin_creations as f64, "count");
    count("vmpage.incoming_diffs", c.incoming_diffs as f64, "count");
    count("vmpage.flush_updates", c.flush_updates as f64, "count");
    count("transport.data_bytes", c.data_bytes as f64, "bytes");
    count(
        "transport.remote_requests",
        c.remote_requests as f64,
        "count",
    );
    let link_total: u64 = links.iter().sum();
    let hot = links.iter().copied().max().unwrap_or(0);
    count(
        "transport.hot_link_share",
        ratio(hot as f64, link_total as f64),
        "ratio",
    );
    count("directory.updates", dir_updates as f64, "count");
    count(
        "directory.bytes_per_update",
        ratio(dir_bytes as f64, dir_updates as f64),
        "bytes",
    );
    count("directory.mem_bytes", dir_mem as f64, "bytes");
    count("write_notice.sent", c.write_notices as f64, "count");
    count("sync.lock_acquires", c.lock_acquires as f64, "count");
    count("sync.barriers", c.barriers as f64, "count");
    count("engine.read_faults", c.read_faults as f64, "count");
    count("engine.write_faults", c.write_faults as f64, "count");
    count("engine.page_transfers", c.page_transfers as f64, "count");
    count(
        "engine.exclusive_transitions",
        c.exclusive_transitions as f64,
        "count",
    );
    count("engine.shootdowns", c.shootdowns as f64, "count");
    count(
        "engine.home_relocations",
        c.home_relocations as f64,
        "count",
    );
    let events: u64 = c
        .pairs()
        .iter()
        .filter(|(name, _)| *name != "data_bytes")
        .map(|(_, v)| v)
        .sum();
    count(
        "engine.host_us_per_event",
        ratio(plain.wall_s * 1e6, events as f64),
        "us",
    );

    count("det.slowdown_x", det.slowdown_x, "x");
    count("det.unpinned_x", det.unpinned_x, "x");
    count("det.par_ratio_w2", det.par_ratio_w2, "x");
    count("det.sor_16x4_s", det.sor_16x4_s, "s");

    // --- where virtual time went (Figures 6 and 7) ------------------------
    let fig6_total: u64 = fig6.iter().sum();
    for (name, v) in [
        "vt.user_frac",
        "vt.protocol_frac",
        "vt.polling_frac",
        "vt.commwait_frac",
        "vt.write_doubling_frac",
    ]
    .into_iter()
    .zip(fig6)
    {
        count(name, ratio(v as f64, fig6_total as f64), "ratio");
    }
    for (name, v) in [
        "vt.task_s",
        "vt.sync_s",
        "vt.protocol_s",
        "vt.wait_s",
        "vt.msg_s",
    ]
    .into_iter()
    .zip(fig7)
    {
        count(name, v as f64 / 1e9, "vt_s");
    }

    count(
        "obs.trace_overhead_ratio",
        ratio(observed.wall_s, plain.wall_s),
        "ratio",
    );
    count("obs.spans_dropped", spans_dropped as f64, "count");
    count("check.events", audit_events as f64, "count");
    count("faults.injected", injected as f64, "count");
    count("recovery.retries", retries as f64, "count");
    count(
        "workload.trace_gen_ns_per_op",
        ratio(p.trace_gen_s * 1e9, p.trace_ops as f64),
        "ns",
    );
    count("workload.trace_ops", p.trace_ops as f64, "count");

    // --- apps: host ms per paper app, and the service rows ------------------
    for app in [
        "SOR", "LU", "Water", "TSP", "Gauss", "Ilink", "Em3d", "Barnes",
    ] {
        let ms: f64 = p
            .cells
            .iter()
            .zip(&plain.runs)
            .filter(|(cell, _)| p.apps[cell.app].name() == app)
            .fold(0.0, |ms, (_, run)| ms + run.wall_s * 1e3);
        count(&format!("apps.{}_ms", app.to_lowercase()), ms, "ms");
    }
    let reqs_per_vt_s = |app: &str| {
        p.cells
            .iter()
            .zip(&observed.runs)
            .filter(|(cell, _)| cell.seq_vt.is_some() && p.apps[cell.app].name() == app)
            .find_map(|(cell, run)| {
                let vt_s = run.out.as_ref()?.report.exec_ns as f64 / 1e9;
                Some(cell.ops as f64 / vt_s)
            })
            .unwrap_or(0.0)
    };
    let (kv, bank) = (reqs_per_vt_s("KV"), reqs_per_vt_s("Bank"));
    count("apps.kv_vt_reqs_per_s", kv, "1/vt_s");
    count("apps.bank_vt_reqs_per_s", bank, "1/vt_s");
    // Arrival-to-completion latency at the fixed sub-saturation rate.
    let sojourn = p
        .cells
        .iter()
        .zip(&observed.runs)
        .filter(|(cell, _)| cell.ops > 0 && cell.seq_vt.is_none())
        .find_map(|(_, run)| {
            Some(
                run.out
                    .as_ref()?
                    .report
                    .obs
                    .as_ref()?
                    .metrics
                    .sojourn_ns
                    .clone(),
            )
        });
    let us = |f: fn(&VtHistogram) -> f64| sojourn.as_ref().map_or(0.0, |h| f(h) / 1e3);
    count("apps.sojourn_mean_vt_us", us(VtHistogram::mean), "vt_us");
    count(
        "apps.sojourn_p50_vt_us",
        us(|h| h.quantile(0.50) as f64),
        "vt_us",
    );
    count(
        "apps.sojourn_p99_vt_us",
        us(|h| h.quantile(0.99) as f64),
        "vt_us",
    );
    count("apps.sojourn_max_vt_us", us(|h| h.max as f64), "vt_us");
    count(
        "apps.sojourn_samples",
        sojourn.as_ref().map_or(0.0, |h| h.count as f64),
        "count",
    );

    // --- computed host-time attribution ---------------------------------
    // count x ns/op over the plain pass's wall: an estimate, not a
    // measurement (processors run on two host threads, and the counts are
    // not the only calls into a layer). What it cannot explain is the
    // residual: the engine's own paths, the det scheduler and the apps.
    let wall_ns = plain.wall_s * 1e9;
    let est = [
        (
            "host_est.vmpage",
            c.twin_creations as f64 * ns("vmpage.twin_pooled_ns")
                + c.flush_updates as f64 * ns("vmpage.diff_sparse_ns")
                + c.incoming_diffs as f64 * ns("vmpage.apply_incoming_ns"),
        ),
        (
            "host_est.transport",
            c.remote_requests as f64 * ns("transport.remote_write_ns")
                + c.page_transfers as f64 * ns("transport.fetch_data_ns")
                + c.flush_updates as f64 * ns("transport.write_runs_page_ns"),
        ),
        ("host_est.directory", dir_ns),
        (
            "host_est.write_notice",
            c.write_notices as f64
                * (ns("write_notice.post_ns") + ns("write_notice.proc_insert_ns")),
        ),
        (
            "host_est.sync",
            c.lock_acquires as f64 * ns("sync.lock_pair_ns"),
        ),
        (
            "host_est.check",
            audit_events as f64 * ns("check.audit_ns_per_event"),
        ),
    ];
    let mut explained = 0.0;
    for (name, layer_ns) in est {
        let share = ratio(layer_ns, wall_ns);
        explained += share;
        count(name, share, "ratio");
    }
    count("host_est.residual", 1.0 - explained, "ratio");
    (m, identity_ok)
}

fn add_counters(total: &mut Counters, c: &Counters) {
    let sums: Vec<(&'static str, u64)> = total
        .pairs()
        .iter()
        .zip(c.pairs())
        .map(|(&(name, a), (_, b))| (name, a + b))
        .collect();
    for (name, v) in sums {
        total.set(name, v);
    }
}
