//! `paper`: the paper's evaluation (§3) as one gate — Tables 1–3, Figures
//! 6–7, the §3.3.4 and §3.3.5 ablations, and the shape checks that assert
//! what EXPERIMENTS.md claims about them.
//!
//! 1. **Golden preflight** (the shared [`GOLDEN`]).
//! 2. **Table 1.** Basic operation costs, measured by running the real
//!    protocol code on micro-programs and differencing virtual time, as the
//!    paper measures two-processor interactions.
//! 3. **Cell sweep and tables.** One sweep runs each application's
//!    sequential baseline, Figure 7's nine configurations × six protocols,
//!    and two 32:4 ablations: 2LS with interrupt-delivered shootdown and 2L
//!    with global-lock directory and notice lists. Table 2, the speedup
//!    table, Table 3, Figure 6, §3.3.4, §3.3.5 and the 32 shape checks all
//!    read that one sample, so every distinct cell runs once per repetition
//!    and the tables agree with each other.
//!
//! Best-of-n is one rule: a parallel cell is repeated `app.timing_reps()`
//! times in the cell list (the paper took the best of three runs for its
//! nondeterministic applications) and its least `exec_ns` stands for it.
//! The 1:1 sequential baseline is deterministic and runs once. The sweep
//! runs on the free-running engine at one job, so a cell's virtual time
//! feels no neighbour on the host.
//!
//! Every table is printed; `results/<table>.{txt,jsonl}` are rewritten only
//! on the Memory Channel, the fabric the committed artifacts describe. The
//! shape checks judge free-running virtual time, which depends on host
//! interleaving, and now and then one fails (EXPERIMENTS.md): `paper` runs
//! only when named.

use std::fmt::Write as _;

use cashmere_apps::{suite, Benchmark, Scale};
use cashmere_core::{
    Cluster, DirectoryMode, Messaging, Nanos, ProtocolKind, Report, RunSpec, TimeCategory,
    PAGE_WORDS,
};

use crate::gate::{run_cells, Cell, Ctx, Done, Gate, Phase, GOLDEN};
use crate::{fmt_k, fmt_mb, sequential_spec, Record, PAPER_CONFIGS};

/// A paper configuration: (total processors, processors per node).
type Config = (usize, usize);

/// The paper's 32-processor configuration, which every table but the
/// speedups reads.
pub const AT32: Config = (32, 4);

/// Figure 7's protocols in its column order: each one-level protocol
/// followed by its home-node extension.
const FIG7_PROTOCOLS: [ProtocolKind; 6] = [
    ProtocolKind::TwoLevel,
    ProtocolKind::TwoLevelShootdown,
    ProtocolKind::OneLevelDiff,
    ProtocolKind::OneLevelDiffHome,
    ProtocolKind::OneLevelWrite,
    ProtocolKind::OneLevelWriteHome,
];

/// Tag of the §3.3.4 cell: 2LS at 32:4 with interrupt-delivered shootdown.
const INTERRUPT: &str = "interrupt";

/// Tag of the §3.3.5 cell: 2L at 32:4 with global-lock protocol structures.
const GLOBAL_LOCK: &str = "global-lock";

/// The gate.
pub const GATE: Gate = Gate {
    name: "paper",
    doc: false,
    phases: &[
        GOLDEN,
        Phase {
            name: "table1",
            mc_only: false,
            run: table1,
        },
        Phase {
            name: "cell sweep and tables",
            mc_only: false,
            run: |ctx| sweep(ctx, &suite(Scale::Bench), &PAPER_CONFIGS),
        },
    ],
};

/// Prints `text` and, on the Memory Channel, writes it to
/// `results/<name>.txt` and `records` to `results/<name>.jsonl`.
fn save(ctx: &mut Ctx, name: &str, text: &str, records: &[Record]) {
    print!("{text}");
    if !ctx.on_mc() {
        return;
    }
    let path = ctx.path("results").join(name);
    let jsonl: String = records.iter().map(|r| r.to_json() + "\n").collect();
    let written = std::fs::create_dir_all(ctx.path("results"))
        .and_then(|()| std::fs::write(path.with_extension("txt"), text))
        .and_then(|()| match records {
            [] => Ok(()),
            _ => std::fs::write(path.with_extension("jsonl"), jsonl),
        });
    match written {
        Ok(()) => eprintln!("[wrote {}.* ({} records)]", path.display(), records.len()),
        Err(e) => ctx.fail(format!("paper: writing {}.* failed: {e}", path.display())),
    }
}

// ---- Table 1 --------------------------------------------------------------

/// Measures an uncontended lock acquire+release pair on processor 0 of a
/// 2:1 `spec`.
fn lock_cost(spec: RunSpec) -> Nanos {
    let mut cluster = Cluster::new(spec.with_heap_pages(4));
    let out = cluster.alloc(2);
    cluster.run(|p| {
        if p.id() == 0 {
            let t0 = p.now();
            p.lock(0);
            p.unlock(0);
            p.write_u64(out, p.now() - t0);
        }
        p.barrier(0);
    });
    cluster.read_u64(out)
}

/// Measures a barrier crossing with all of `spec`'s processors arriving
/// simultaneously (every processor's crossing time is identical by
/// construction; processor 0's is reported).
fn barrier_cost(spec: RunSpec) -> Nanos {
    let mut cluster = Cluster::new(spec.with_heap_pages(4));
    let out = cluster.alloc(2);
    cluster.run(|p| {
        p.barrier(0); // align clocks
        let t0 = p.now();
        p.barrier(1);
        if p.id() == 0 {
            p.write_u64(out, p.now() - t0);
        }
    });
    cluster.read_u64(out)
}

/// Measures a page fetch on a 4:2 `spec` (two physical nodes, two procs
/// each): processor 0 (node 0) homes a page by first touch, then a reader
/// read-faults it — on the home's physical node when `local` (meaningful
/// for the one-level protocols), on the other node otherwise.
fn page_transfer_cost(spec: RunSpec, local: bool) -> Nanos {
    let mut cluster = Cluster::new(spec.with_heap_pages(8));
    let page = cluster.alloc_page_aligned(PAGE_WORDS);
    let out = cluster.alloc(2);
    let reader = if local { 1 } else { 2 };
    cluster.run(|p| {
        if p.id() == 0 {
            p.write_u64(page, 7);
        }
        p.barrier(0);
        if p.id() == reader {
            let t0 = p.now();
            let _ = p.read_u64(page);
            p.write_u64(out, p.now() - t0);
        }
        p.barrier(1);
    });
    cluster.read_u64(out)
}

/// Table 1's rows: label, then the paper's 2L/2LS and 1LD/1L costs (µs).
const TABLE1: [(&str, &str, &str); 5] = [
    ("Lock Acquire", "19", "11"),
    ("Barrier (2 procs)", "58", "41"),
    ("Barrier (32 procs)", "321", "364"),
    ("Page Transfer (Local)", "—", "467"),
    ("Page Transfer (Remote)", "824", "777"),
];

/// Phase 2: Table 1, measured in [`TABLE1`]'s row order.
pub fn table1(ctx: &mut Ctx) {
    let (two, one) = (ProtocolKind::TwoLevel, ProtocolKind::OneLevelDiff);
    let us = |ns: Nanos| format!("{:.0}", ns as f64 / 1000.0);
    let lock = |p| us(lock_cost(ctx.spec(p, 2, 1)));
    let bar = |p, total, per_node| us(barrier_cost(ctx.spec(p, total, per_node)));
    let xfer = |p, local| us(page_transfer_cost(ctx.spec(p, 4, 2), local));
    let measured = [
        [lock(two), lock(one)],
        [bar(two, 2, 1), bar(one, 2, 1)],
        [bar(two, 32, 4), bar(one, 32, 4)],
        ["—".into(), xfer(one, true)],
        [xfer(two, false), xfer(one, false)],
    ];
    let mut s = String::from(
        "Table 1: Costs of basic operations (microseconds)\n\
         (paper values in parentheses)\n\n\
         Operation                               2L/2LS            1LD/1L\n",
    );
    let _ = writeln!(s, "{:-<64}", "");
    // A column is 16 characters: the measured value, then " (paper)".
    let col = |v: &str, paper: &str| format!("{v:>w$} ({paper})", w = 13 - paper.chars().count());
    for ((label, paper_two, paper_one), [two, one]) in TABLE1.into_iter().zip(measured) {
        let (two, one) = (col(&two, paper_two), col(&one, paper_one));
        let _ = writeln!(s, "{label:<28}{two}{one}");
    }
    save(ctx, "table1", &s, &[]);
}

// ---- The sweep ------------------------------------------------------------

/// How many times `cell` runs: the 1:1 sequential baseline is
/// deterministic, a parallel cell takes its app's best-of-n.
fn reps(cell: &Cell) -> usize {
    if cell.spec.topology.total_procs() == 1 {
        1
    } else {
        cell.app.timing_reps()
    }
}

/// The sweep's cell list, apps outermost, each cell repeated [`reps`]
/// times: the sequential baseline, `configs` × [`FIG7_PROTOCOLS`], then the
/// [`INTERRUPT`] and [`GLOBAL_LOCK`] ablations at [`AT32`].
fn cells<'a>(ctx: &Ctx, apps: &'a [Box<dyn Benchmark>], configs: &[Config]) -> Vec<Cell<'a>> {
    let at32 = |protocol| ctx.spec(protocol, AT32.0, AT32.1);
    let mut cells = Vec::new();
    for app in apps {
        let app = app.as_ref();
        cells.push(Cell::new(app, sequential_spec()));
        for &(total, per_node) in configs {
            cells.extend(FIG7_PROTOCOLS.map(|p| Cell::new(app, ctx.spec(p, total, per_node))));
        }
        let interrupt = at32(ProtocolKind::TwoLevelShootdown).with_messaging(Messaging::Interrupt);
        let locked = at32(ProtocolKind::TwoLevel).with_directory(DirectoryMode::GlobalLock);
        let tagged = |tag, spec| Cell {
            tag,
            ..Cell::new(app, spec)
        };
        cells.extend([tagged(INTERRUPT, interrupt), tagged(GLOBAL_LOCK, locked)]);
    }
    cells
        .into_iter()
        .flat_map(|cell| std::iter::repeat_n(cell.clone(), reps(&cell)))
        .collect()
}

/// The sweep's fastest run of every distinct cell, in list order.
struct Sample<'a>(Vec<Done<'a>>);

impl<'a> Sample<'a> {
    /// The run of `app` under `p` at `at` with `tag`.
    fn get(&self, app: &str, p: ProtocolKind, at: Config, tag: &str) -> &Done<'a> {
        let found = self.0.iter().find(|d| {
            let topo = &d.cell.spec.topology;
            d.app() == app
                && d.cell.spec.protocol == p
                && (topo.total_procs(), topo.procs_per_node()) == at
                && d.cell.tag == tag
        });
        found.unwrap_or_else(|| panic!("no {app} {} {at:?} {tag} cell", p.label()))
    }

    /// `app`'s sequential baseline.
    fn seq(&self, app: &str) -> &Done<'a> {
        self.get(app, ProtocolKind::TwoLevel, (1, 1), "")
    }

    /// `app` under `protocol` at 32:4.
    fn at32(&self, app: &str, protocol: ProtocolKind) -> &Done<'a> {
        self.get(app, protocol, AT32, "")
    }
}

/// Phase 3 over `apps` at `configs` (the tables read [`AT32`]): runs the
/// sweep at one job, keeps each cell's fastest run, and writes every table
/// and the shape checks from that one sample.
pub fn sweep(ctx: &mut Ctx, apps: &[Box<dyn Benchmark>], configs: &[Config]) {
    let cells = cells(ctx, apps, configs);
    let mut best: Vec<Done> = Vec::new();
    let mut left = 0;
    run_cells(&cells, 1, |done, _| {
        if left == 0 {
            left = reps(done.cell);
            best.push(done);
        } else if let Some(kept) = best
            .last_mut()
            .filter(|kept| done.outcome.report.exec_ns < kept.outcome.report.exec_ns)
        {
            *kept = done;
        }
        left -= 1;
    });
    let sample = Sample(best);
    let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
    table2(ctx, apps, &sample);
    speedups(ctx, &names, configs, &sample);
    table3(ctx, &names, &sample);
    fig6(ctx, &names, &sample);
    shootdown(ctx, &names, &sample);
    lockfree(ctx, &names, &sample);
    shape_checks(ctx, &names, &sample);
}

// ---- The table writers ----------------------------------------------------

/// A record of `done` (speedup against `seq_ns` when nonzero).
fn record(experiment: &'static str, done: &Done, seq_ns: Nanos) -> Record {
    let (app, spec) = (done.app(), &done.cell.spec);
    Record::new(experiment, app, spec, &done.outcome, seq_ns)
}

/// Table 2: data-set sizes and simulated sequential times.
fn table2(ctx: &mut Ctx, apps: &[Box<dyn Benchmark>], sample: &Sample) {
    let mut s = String::from(
        "Table 2: Data set sizes and sequential execution times (simulated)\n\n\
         Program  Problem size (scaled)                           Time (sim s)\n",
    );
    let _ = writeln!(s, "{:-<69}", "");
    let mut records = Vec::new();
    for app in apps {
        let seq = sample.seq(app.name());
        let (name, size) = (app.name(), app.size_description());
        let secs = seq.outcome.report.exec_secs();
        let _ = writeln!(s, "{name:<9}{size:<46}{secs:>14.4}");
        records.push(record("table2", seq, 0));
    }
    save(ctx, "table2", &s, &records);
}

/// Figure 7's speedups over the sequential baseline, every configuration
/// and protocol.
fn speedups(ctx: &mut Ctx, names: &[&str], configs: &[Config], sample: &Sample) {
    let mut s = String::from("Figure 7: Speedups across cluster configurations\n");
    let mut records = Vec::new();
    for &name in names {
        let seq = &sample.seq(name).outcome.report;
        let secs = seq.exec_secs();
        let _ = write!(
            s,
            "\n--- {name} (sequential: {secs:.4} sim s) ---\nconfig  "
        );
        for p in FIG7_PROTOCOLS {
            let _ = write!(s, "{:>8}", p.label());
        }
        for &config in configs {
            let _ = write!(s, "\n{:<8}", format!("{}:{}", config.0, config.1));
            for p in FIG7_PROTOCOLS {
                let done = sample.get(name, p, config, "");
                let _ = write!(s, "{:>8.2}", done.outcome.report.speedup(seq.exec_ns));
                records.push(record("speedups", done, seq.exec_ns));
            }
        }
        s.push('\n');
    }
    save(ctx, "speedups", &s, &records);
}

/// Table 3's rows: label, and the cell of one run.
type Row = (&'static str, fn(&Report) -> String);

/// The rows every protocol's block of Table 3 has.
const TABLE3_ROWS: [Row; 11] = [
    ("Exec. time (sim s)", |r| format!("{:.3}", r.exec_secs())),
    ("Lock/Flag Acquires", |r| fmt_k(r.counters.lock_acquires)),
    ("Barriers", |r| r.counters.barriers.to_string()),
    ("Read Faults", |r| fmt_k(r.counters.read_faults)),
    ("Write Faults", |r| fmt_k(r.counters.write_faults)),
    ("Page Transfers", |r| fmt_k(r.counters.page_transfers)),
    ("Directory Updates", |r| fmt_k(r.counters.directory_updates)),
    ("Write Notices", |r| fmt_k(r.counters.write_notices)),
    ("Excl. Mode Transitions", |r| {
        fmt_k(r.counters.exclusive_transitions)
    }),
    ("Data (Mbytes)", |r| fmt_mb(r.counters.data_bytes)),
    ("Twin Creations", |r| fmt_k(r.counters.twin_creations)),
];

/// Table 3's rows only 2L has: its twin-maintenance traffic.
const TABLE3_2L_ROWS: [Row; 2] = [
    ("Incoming Diffs", |r| r.counters.incoming_diffs.to_string()),
    ("Flush-Updates", |r| fmt_k(r.counters.flush_updates)),
];

/// Table 3's row only 2LS has.
const TABLE3_2LS_ROWS: [Row; 1] = [("Shootdowns", |r| r.counters.shootdowns.to_string())];

/// Table 3: detailed statistics at 32:4.
fn table3(ctx: &mut Ctx, names: &[&str], sample: &Sample) {
    let mut s = String::from("Table 3: Detailed statistics at 32 processors (32:4)\n");
    let mut records = Vec::new();
    for protocol in ProtocolKind::PAPER_FOUR {
        let runs: Vec<&Done> = names.iter().map(|n| sample.at32(n, protocol)).collect();
        records.extend(runs.iter().map(|d| record("table3", d, 0)));
        let _ = write!(s, "\n=== {} ===\n{:<26}", protocol.label(), "Application");
        for n in names {
            let _ = write!(s, "{n:>10}");
        }
        let _ = write!(s, "\n{:-<106}\n", "");
        let extra: &[Row] = match protocol {
            ProtocolKind::TwoLevel => &TABLE3_2L_ROWS,
            ProtocolKind::TwoLevelShootdown => &TABLE3_2LS_ROWS,
            _ => &[],
        };
        for (label, cell) in TABLE3_ROWS.iter().chain(extra) {
            let _ = write!(s, "{label:<26}");
            for d in &runs {
                let _ = write!(s, "{:>10}", cell(&d.outcome.report));
            }
            s.push('\n');
        }
    }
    save(ctx, "table3", &s, &records);
}

/// Figure 6: the execution-time breakdown at 32:4, normalized to 2L's
/// total, so 2L's bar sums to 100 % and slower protocols exceed it.
fn fig6(ctx: &mut Ctx, names: &[&str], sample: &Sample) {
    let mut s = String::from(
        "Figure 6: Normalized execution-time breakdown at 32 processors (32:4)\n\
         (percent of the 2L total; columns sum to the protocol's relative time)\n",
    );
    let mut records = Vec::new();
    for &name in names {
        let runs = ProtocolKind::PAPER_FOUR.map(|p| &sample.at32(name, p).outcome.report);
        let base = runs[0].exec_ns.max(1) as f64; // 2L execution time
        let _ = write!(s, "\n--- {name} ---\n{:<16}", "Component");
        for p in ProtocolKind::PAPER_FOUR {
            let _ = write!(s, "{:>9}", p.label());
        }
        for cat in TimeCategory::ALL {
            let _ = write!(s, "\n{:<16}", cat.label());
            for r in runs {
                // Average per-processor time in this category, relative to
                // the 2L wall time.
                let per_proc = r.breakdown.get(cat) / r.procs as u64;
                let _ = write!(s, "{:>8.1}%", per_proc as f64 / base * 100.0);
            }
        }
        let _ = write!(s, "\n{:<16}", "Total (rel 2L)");
        for r in runs {
            let _ = write!(s, "{:>8.1}%", r.exec_ns as f64 / base * 100.0);
        }
        s.push('\n');
        records.extend(ProtocolKind::PAPER_FOUR.map(|p| record("fig6", sample.at32(name, p), 0)));
    }
    save(ctx, "fig6", &s, &records);
}

/// §3.3.4: 2L vs 2LS under polling, and 2LS with interrupt-delivered
/// shootdown.
fn shootdown(ctx: &mut Ctx, names: &[&str], sample: &Sample) {
    let mut s = String::from(
        "Section 3.3.4: TLB shootdown vs two-way diffing at 32 processors (32:4)\n\n\
         App            2L (s)  2LS-poll (s)    2LS-intr (s)  shootdownsintr. slowdown\n",
    );
    let _ = writeln!(s, "{:-<77}", "");
    let mut records = Vec::new();
    for &name in names {
        let two = sample.at32(name, ProtocolKind::TwoLevel);
        let poll = sample.at32(name, ProtocolKind::TwoLevelShootdown);
        let intr = sample.get(name, ProtocolKind::TwoLevelShootdown, AT32, INTERRUPT);
        let [t, p, i] = [two, poll, intr].map(|d| d.outcome.report.exec_secs());
        let shootdowns = poll.outcome.report.counters.shootdowns;
        let slowdown = (i / p - 1.0) * 100.0;
        let _ = writeln!(
            s,
            "{name:<9}{t:>12.3}{p:>14.3}{i:>16.3}{shootdowns:>12}{slowdown:>13.1}%"
        );
        records.push(record("shootdown", two, 0));
        records.push(record("shootdown", poll, 0));
    }
    s.push_str(
        "\nPaper finding to compare: 2LS matches 2L under polling; interrupt-based\n\
         shootdown costs ~6% on Water (false sharing under locks); shootdown is\n\
         rare because multi-writer pages are never \"stolen\".\n",
    );
    save(ctx, "shootdown", &s, &records);
}

/// §3.3.5: lock-free vs global-lock directory and write-notice structures
/// under 2L.
fn lockfree(ctx: &mut Ctx, names: &[&str], sample: &Sample) {
    let mut s = String::from(
        "Section 3.3.5: Lock-free vs global-lock protocol structures (2L, 32:4)\n\n\
         App         lock-free (s) global-lock (s)        gain dir.updates     notices\n",
    );
    let _ = writeln!(s, "{:-<77}", "");
    let mut records = Vec::new();
    for &name in names {
        let free = sample.at32(name, ProtocolKind::TwoLevel);
        let locked = sample.get(name, ProtocolKind::TwoLevel, AT32, GLOBAL_LOCK);
        let [f, l] = [free, locked].map(|d| d.outcome.report.exec_secs());
        let counters = free.outcome.report.counters;
        let gain = (l / f - 1.0) * 100.0;
        let dirs = fmt_k(counters.directory_updates);
        let notices = fmt_k(counters.write_notices);
        let _ = writeln!(
            s,
            "{name:<9}{f:>16.3}{l:>16.3}{gain:>11.1}%{dirs:>12}{notices:>12}"
        );
        records.push(record("lockfree", free, 0));
        records.push(record("lockfree_gl", locked, 0));
    }
    s.push_str(
        "\nPaper finding to compare: the gain tracks directory/notice volume —\n\
         Barnes ~5%, Em3d ~5%, Ilink ~7%, Water ~0%, others insignificant.\n",
    );
    save(ctx, "lockfree", &s, &records);
}

/// The reproduction's qualitative claims (EXPERIMENTS.md), checked on the
/// 32:4 cells; each failed check fails the gate.
fn shape_checks(ctx: &mut Ctx, names: &[&str], sample: &Sample) {
    use ProtocolKind::{OneLevelDiff, OneLevelWrite, TwoLevel, TwoLevelShootdown};
    let report = |name: &str, p| &sample.at32(name, p).outcome.report;
    let ns = |name: &str, p| report(name, p).exec_ns as f64;
    let mut checks: Vec<(&str, bool, String)> = Vec::new();

    // 1. 2L beats (or matches) 1LD on every deterministic-timing app; TSP
    //    and Barnes are allowed to tie within noise (the paper reports TSP
    //    as equal).
    for &name in names {
        let (two, one) = (ns(name, TwoLevel), ns(name, OneLevelDiff));
        // TSP's branch-and-bound workload is nondeterministic: run-to-run
        // work variance routinely exceeds the protocol effect (the paper
        // itself reports the two protocols as equal on TSP), so it gets the
        // widest band.
        let tolerance = match name {
            "TSP" => 1.75,
            "Barnes" | "Water" => 1.35,
            _ => 1.02,
        };
        let detail = format!("{name}: 2L {:.3}s vs 1LD {:.3}s", two / 1e9, one / 1e9);
        checks.push(("2L <= 1LD execution time", two <= one * tolerance, detail));
    }

    // 2. 2L ≈ 2LS (§3.3.4): within 15% both ways on deterministic apps.
    for &name in names
        .iter()
        .filter(|&&n| !matches!(n, "TSP" | "Barnes" | "Water"))
    {
        let (two, shoot) = (ns(name, TwoLevel), ns(name, TwoLevelShootdown));
        let detail = format!("{name}: 2L {:.3}s vs 2LS {:.3}s", two / 1e9, shoot / 1e9);
        checks.push(("2L ~ 2LS", (two / shoot - 1.0).abs() < 0.15, detail));
    }

    // 3. The strongly two-level-favoring apps (Gauss, Ilink, Em3d) show a
    //    substantial (>15%) 2L win over 1LD — the paper's 22–46% family.
    for &name in names
        .iter()
        .filter(|&&n| matches!(n, "Gauss" | "Ilink" | "Em3d"))
    {
        let gain = ns(name, OneLevelDiff) / ns(name, TwoLevel);
        let detail = format!("{name}: 1LD/2L = {gain:.2}x");
        checks.push(("big two-level win (Gauss/Ilink/Em3d)", gain > 1.15, detail));
    }

    // 4. 2L coalesces: fewer page transfers and less data than 1LD
    //    everywhere (TSP excluded: its transfer count tracks its
    //    nondeterministic search volume, not the protocol).
    for &name in names.iter().filter(|&&n| n != "TSP") {
        let t2 = report(name, TwoLevel).counters.page_transfers;
        let t1 = report(name, OneLevelDiff).counters.page_transfers;
        let detail = format!("{name}: {t2} vs {t1}");
        checks.push(("2L transfers <= 1LD transfers", t2 <= t1, detail));
    }

    // 5. LU's 1L clustering collapse (§3.3.3): 1L at 32:4 clearly slower
    //    than 2L.
    if names.contains(&"LU") {
        let ratio = ns("LU", OneLevelWrite) / ns("LU", TwoLevel);
        let detail = format!("1L/2L = {ratio:.2}x");
        checks.push(("LU write-doubling collapse", ratio > 1.5, detail));
    }

    // 6. Speedups are sane: every app gains from 4 → 32 processors under 2L.
    for &name in names {
        let s32 = report(name, TwoLevel).speedup(sample.seq(name).outcome.report.exec_ns);
        let detail = format!("{name}: {s32:.2}x");
        checks.push(("2L speedup at 32:4 > 2", s32 > 2.0, detail));
    }

    let mut failed = 0;
    for (name, ok, detail) in &checks {
        let mark = if *ok { "PASS" } else { "FAIL" };
        println!("[{mark}] {name:<38} {detail}");
        if !ok {
            failed += 1;
            ctx.fail(format!("paper: {name}: {detail}"));
        }
    }
    println!();
    println!("{} checks, {failed} failed", checks.len());
}
