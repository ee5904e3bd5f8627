//! The gate harness: one way to write a gate.
//!
//! The paper's evaluation is one matrix — applications × protocols ×
//! cluster configurations — and every gate is a slice of it pushed along
//! one more axis (fault plans, observability, cluster scale, fabric, host
//! workers). So a gate is data: a named list of [`Phase`]s, each a function
//! over the shared [`Ctx`], and a phase is mostly a list of [`Cell`]s handed
//! to the one executor, [`run_cells`], plus assertions on what comes back.
//!
//! The context owns everything the gates used to copy from each other: the
//! parsed command line ([`Args`]), the failure counter with the one
//! checksum-and-audit check ([`Ctx::check`]), the one `BENCH_<gate>.json`
//! document, and the paper-golden regeneration ([`Ctx::golden`]) — run once
//! per process however many gates ask for it, and skipped with one printed
//! note when `--backend` leaves the Memory Channel the goldens pin.
//!
//! Cells fan out across a bounded worker pool sized by `CASHMERE_JOBS`
//! (default: available parallelism). A cell's checksum and audit verdict do
//! not depend on host interleaving, so only wall-clock *measurement* needs
//! serialization: timed phases pass `jobs = 1`. Finished cells are buffered
//! and delivered to the callback strictly in list order.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use cashmere_apps::{run_app, suite, AppOutcome, Benchmark, Scale};
use cashmere_check::{audit, AuditReport};
use cashmere_core::{Backend, Cluster, FaultPlan, ProtocolKind, RunSpec, Trace};

use crate::golden::{build_goldens, check_table2};
use crate::{json_arr, paper_spec, Obj};

/// The seed every gate runs under unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 24301;

/// A fault-plan constructor, called with the cell's `spec.seed` once per
/// run: a [`FaultPlan`] accumulates injection statistics, so sharing one
/// across runs would conflate their fault counts.
pub type PlanFn = fn(u64) -> FaultPlan;

/// One application run of a sweep.
#[derive(Clone)]
pub struct Cell<'a> {
    /// The application.
    pub app: &'a dyn Benchmark,
    /// Everything else that defines the run.
    pub spec: RunSpec,
    /// Label of whatever axis the spec does not show (the fault-plan
    /// flavor); empty otherwise.
    pub tag: &'static str,
    /// Fault plan to install, built from `spec.seed` for each run.
    pub plan: Option<PlanFn>,
}

impl<'a> Cell<'a> {
    /// A fault-free cell.
    #[must_use]
    pub fn new(app: &'a dyn Benchmark, spec: RunSpec) -> Self {
        Self {
            app,
            spec,
            tag: "",
            plan: None,
        }
    }
}

/// `apps` × `protocols`, apps outermost, each cell under `spec(protocol)`.
pub fn matrix<'a>(
    apps: &'a [Box<dyn Benchmark>],
    protocols: &[ProtocolKind],
    spec: impl Fn(ProtocolKind) -> RunSpec,
) -> Vec<Cell<'a>> {
    apps.iter()
        .flat_map(|app| protocols.iter().map(|&p| Cell::new(app.as_ref(), spec(p))))
        .collect()
}

/// Every cell under every plan flavor, plans innermost.
#[must_use]
pub fn cross_plans<'a>(cells: Vec<Cell<'a>>, plans: &[(&'static str, PlanFn)]) -> Vec<Cell<'a>> {
    cells
        .into_iter()
        .flat_map(|cell| {
            plans.iter().map(move |&(tag, plan)| Cell {
                tag,
                plan: Some(plan),
                ..cell.clone()
            })
        })
        .collect()
}

/// A finished cell: its outcome, trace and wall time.
pub struct Done<'a> {
    /// The cell that ran.
    pub cell: &'a Cell<'a>,
    /// Checksum and report (`Report::obs` when `spec.obs`).
    pub outcome: AppOutcome,
    /// Protocol event trace (empty unless `spec.audit`).
    pub trace: Trace,
    /// The trace's audit, taken on the pool worker that ran the cell: an
    /// auditing delivery thread would compete with the cells for the host's
    /// CPUs, and the free-running cells' traffic counts feel that.
    pub audit: AuditReport,
    /// Wall-clock seconds of build + execute.
    pub wall_secs: f64,
}

impl Done<'_> {
    /// The application's name.
    #[must_use]
    pub fn app(&self) -> &'static str {
        self.cell.app.name()
    }

    /// The protocol's label.
    #[must_use]
    pub fn protocol(&self) -> &'static str {
        self.cell.spec.protocol.label()
    }

    /// `app protocol [tag]`, padded for aligned progress lines.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{:8} {:4} {:20}",
            self.app(),
            self.protocol(),
            self.cell.tag
        )
    }
}

/// Worker count from `CASHMERE_JOBS` (default: available parallelism).
pub fn jobs_from_env() -> usize {
    match std::env::var("CASHMERE_JOBS") {
        Ok(v) => v.trim().parse().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs one cell under a fresh fault plan.
fn run_cell<'a>(cell: &'a Cell<'a>) -> (Done<'a>, Cluster) {
    let mut spec = cell.spec.clone();
    if let Some(build) = cell.plan {
        spec.fault_plan = Some(Arc::new(build(spec.seed)));
    }
    let t = Instant::now();
    let (outcome, cluster) = run_app(cell.app, &spec);
    let trace = cluster.take_trace();
    let wall_secs = t.elapsed().as_secs_f64();
    let done = Done {
        cell,
        outcome,
        audit: audit(&trace),
        trace,
        wall_secs,
    };
    (done, cluster)
}

/// The one executor. Runs every cell on up to `jobs` host threads and hands
/// each finished cell, with the [`Cluster`] it ran on, to `on_cell` in list
/// order regardless of which worker finishes first. The callback owns the
/// cell: a sweep that keeps nothing (a 64×16 ladder's traces would not fit)
/// holds only the out-of-order completions.
pub fn run_cells<'a>(
    cells: &'a [Cell<'a>],
    jobs: usize,
    mut on_cell: impl FnMut(Done<'a>, &Cluster),
) {
    if jobs <= 1 || cells.len() <= 1 {
        for cell in cells {
            let (done, cluster) = run_cell(cell);
            on_cell(done, &cluster);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let mut slots: Vec<Option<(Done<'a>, Cluster)>> = cells.iter().map(|_| None).collect();
    let mut delivered = 0;
    std::thread::scope(|s| {
        for _ in 0..jobs.min(cells.len()) {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || loop {
                // relaxed-ok: work-stealing index; claims only need to be
                // unique, which single-location RMW coherence guarantees,
                // and results travel through the channel's own ordering.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else {
                    break;
                };
                if tx.send((i, run_cell(cell))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Release finished cells strictly in list order: buffer
        // out-of-order completions until the prefix is contiguous.
        for (i, finished) in rx {
            slots[i] = Some(finished);
            while let Some((done, cluster)) = slots.get_mut(delivered).and_then(Option::take) {
                on_cell(done, &cluster);
                delivered += 1;
            }
        }
    });
    assert_eq!(delivered, cells.len(), "every cell must complete");
}

/// [`run_cells`] keeping every finished cell, in list order.
pub fn collect_cells<'a>(cells: &'a [Cell<'a>], jobs: usize) -> Vec<Done<'a>> {
    let mut done = Vec::with_capacity(cells.len());
    run_cells(cells, jobs, |d, _| done.push(d));
    done
}

/// The parsed command line of the `gate` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Gates to run, in registry order; empty means all.
    pub gates: Vec<String>,
    /// `--seed N`: seeds fault plans and service traces, echoed into every
    /// document.
    pub seed: u64,
    /// `--backend {mc,rdma,cxl}`: the interconnect (DESIGN.md §14).
    pub backend: Backend,
    /// `--obs`: run the soak sweep with the observability hooks on (its
    /// checksums and audits must not care).
    pub obs: bool,
    /// `--trace APP:PROTO`: which cell of the obsgate sweep is exported as
    /// a Chrome trace (default `SOR:2L`).
    pub trace: Option<(String, String)>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            gates: Vec::new(),
            seed: DEFAULT_SEED,
            backend: Backend::default(),
            obs: false,
            trace: None,
        }
    }
}

impl Args {
    /// Parses `[NAME…] [--seed N] [--backend B] [--obs] [--trace
    /// APP:PROTO]` against the registered `gates`.
    pub fn parse(args: impl IntoIterator<Item = String>, gates: &[Gate]) -> Result<Self, String> {
        let mut a = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => {
                    a.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed requires an integer")?;
                }
                "--backend" => {
                    a.backend = args
                        .next()
                        .and_then(|v| Backend::from_label(&v))
                        .ok_or("--backend requires one of mc, rdma, cxl")?;
                }
                "--obs" => a.obs = true,
                "--trace" => {
                    let spec = args.next().unwrap_or_default();
                    let (app, proto) = spec
                        .split_once(':')
                        .ok_or(format!("--trace takes APP:PROTO, got {spec:?}"))?;
                    a.trace = Some((app.to_string(), proto.to_string()));
                }
                name if gates.iter().any(|g| g.name == name) => a.gates.push(arg),
                other => {
                    let known: Vec<_> = gates.iter().map(|g| g.name).collect();
                    return Err(format!(
                        "unknown argument {other:?} (gates: {}; flags: --seed N, \
                         --backend {{mc,rdma,cxl}}, --obs, --trace APP:PROTO)",
                        known.join(", ")
                    ));
                }
            }
        }
        Ok(a)
    }
}

/// One step of a gate.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Name, printed as the phase starts.
    pub name: &'static str,
    /// Whether the phase only means something on the Memory Channel (the
    /// golden identities); skipped with a note on any other backend.
    pub mc_only: bool,
    /// The step.
    pub run: fn(&mut Ctx),
}

/// The plain golden preflight, the first phase of most gates: whatever the
/// gate is about must not have moved a byte of the paper artifacts.
pub const GOLDEN: Phase = Phase {
    name: "golden",
    mc_only: true,
    run: |ctx| {
        ctx.golden(Golden::Plain);
    },
};

/// A named list of phases.
#[derive(Clone, Copy)]
pub struct Gate {
    /// Name on the command line; the document is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Whether the gate leaves a document.
    pub doc: bool,
    /// The phases, run in order.
    pub phases: &'static [Phase],
}

/// Which probes a golden regeneration turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Golden {
    /// Nothing: the plain drift gate, regenerated once per process.
    Plain,
    /// An installed-but-empty fault plan with the audit recorder on: every
    /// probe must also audit clean and the plan must count zero faults.
    EmptyPlan,
    /// The observability hooks on.
    Obs,
}

/// What every phase of every gate shares.
pub struct Ctx {
    /// The parsed command line.
    pub args: Args,
    /// Where `results/` and the `BENCH_*.json` documents live.
    pub root: PathBuf,
    /// Worker count for untimed sweeps (`CASHMERE_JOBS`).
    pub jobs: usize,
    /// `GOLDEN_CAPTURE=1`: (re)write `results/vt_golden.jsonl` instead of
    /// checking it.
    pub capture: bool,
    /// Checks failed so far, over all gates.
    pub failures: usize,
    /// The running gate's document: a header every gate shares, then the
    /// fields its phases add.
    pub doc: Obj,
    /// The running gate's `cells` array.
    pub cells: Vec<String>,
    /// How many golden regenerations have run.
    pub golden_runs: usize,
    /// Whether the one "golden-identity phases skipped" note of this
    /// process has been printed.
    pub skip_noted: bool,
    /// The plain regeneration's contents and drift count, once it has run.
    plain_golden: Option<(String, usize)>,
}

impl Ctx {
    /// A context rooted at the current directory (the repo root, where
    /// `scripts/gate.sh` runs the binary).
    #[must_use]
    pub fn new(args: Args) -> Self {
        Self {
            args,
            root: PathBuf::new(),
            jobs: jobs_from_env(),
            capture: std::env::var("GOLDEN_CAPTURE").is_ok_and(|v| v == "1"),
            failures: 0,
            doc: Obj::new(),
            cells: Vec::new(),
            golden_runs: 0,
            skip_noted: false,
            plain_golden: None,
        }
    }

    /// `rel` under the root.
    #[must_use]
    pub fn path(&self, rel: &str) -> PathBuf {
        self.root.join(rel)
    }

    /// The spec of `protocol` at `total`:`per_node` on the command line's
    /// backend and seed.
    #[must_use]
    pub fn spec(&self, protocol: ProtocolKind, total: usize, per_node: usize) -> RunSpec {
        paper_spec(protocol, total, per_node)
            .with_transport(self.args.backend)
            .with_seed(self.args.seed)
    }

    /// Whether the run is on the fabric the committed goldens pin.
    #[must_use]
    pub fn on_mc(&self) -> bool {
        self.args.backend == Backend::MemoryChannel
    }

    /// Counts one failed check.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.failures += 1;
        eprintln!("FAIL: {what}");
    }

    /// The plain golden regeneration's verdict, for documents that echo it.
    #[must_use]
    pub fn golden_verdict(&self) -> &'static str {
        match self.plain_golden {
            None => "skipped",
            Some((_, 0)) => "ok",
            Some(_) => "drift",
        }
    }

    /// The one checksum-and-audit check: `done` must have computed `want`
    /// and its trace must have audited clean. Returns the two verdicts.
    pub fn check(&mut self, done: &Done, want: u64) -> (bool, bool) {
        let checksum_ok = done.outcome.checksum == want;
        if !checksum_ok {
            let got = done.outcome.checksum;
            self.fail(format!("{}: CHECKSUM {got} != {want}", done.label()));
        }
        if !done.audit.is_clean() {
            self.fail(format!(
                "{}: AUDIT DIRTY\n{}",
                done.label(),
                done.audit.summary()
            ));
        }
        (checksum_ok, done.audit.is_clean())
    }

    /// The one golden preflight: regenerates the deterministic paper
    /// goldens with `variant`'s probes on and requires byte-identity with
    /// the committed `results/vt_golden.jsonl` and the sequential rows of
    /// `results/table2.jsonl` (capture mode rewrites the former instead).
    /// Returns the regenerated contents. [`Golden::Plain`] regenerates once
    /// per process; later calls re-count its drift and return the copy.
    pub fn golden(&mut self, variant: Golden) -> String {
        if variant == Golden::Plain {
            if let Some((jsonl, drift)) = &self.plain_golden {
                println!("golden: regenerated earlier in this process ({drift} drifted)");
                self.failures += drift;
                return jsonl.clone();
            }
        }
        let plan = (variant == Golden::EmptyPlan).then(|| Arc::new(FaultPlan::new(self.args.seed)));
        let before = self.failures;
        let g = build_goldens(
            &suite(Scale::Bench),
            plan.as_ref(),
            plan.is_some(),
            variant == Golden::Obs,
        );
        self.golden_runs += 1;
        let path = self.path("results/vt_golden.jsonl");
        if self.capture {
            std::fs::write(&path, &g.jsonl).expect("write vt_golden.jsonl");
            eprintln!("[wrote {}]", path.display());
        } else {
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed == g.jsonl => println!(
                    "golden {variant:?}: {} lines byte-identical to {}",
                    g.jsonl.lines().count(),
                    path.display()
                ),
                Ok(committed) => {
                    self.fail(format!("golden {variant:?}: DRIFT from {}", path.display()));
                    for (i, (a, b)) in committed.lines().zip(g.jsonl.lines()).enumerate() {
                        if a != b {
                            eprintln!(
                                "  line {}:\n    committed:   {a}\n    regenerated: {b}",
                                i + 1
                            );
                        }
                    }
                }
                Err(e) => self.fail(format!(
                    "golden: cannot read {} ({e}) — capture with GOLDEN_CAPTURE=1",
                    path.display()
                )),
            }
        }
        self.failures += check_table2(&self.path("results/table2.jsonl"), &g.seq_secs);
        for (probe, trace) in &g.traces {
            let report = audit(trace);
            if !report.is_clean() {
                self.fail(format!("golden {probe}: AUDIT DIRTY\n{}", report.summary()));
            }
        }
        if let Some(injected) = plan.map(|p| p.stats().total()).filter(|&n| n > 0) {
            self.fail(format!("golden: empty plan injected {injected} fault(s)"));
        }
        if variant == Golden::Plain {
            self.plain_golden = Some((g.jsonl.clone(), self.failures - before));
        }
        g.jsonl
    }

    /// Runs `phases` as gate `name` and returns the document they leave
    /// (`doc` says whether there is one): a header every gate shares, the
    /// fields the phases added, the cell records, and the failure count.
    pub fn run_phases(&mut self, name: &str, doc: bool, phases: &[Phase]) -> Option<String> {
        let before = self.failures;
        self.cells.clear();
        self.doc = Obj::new();
        self.doc
            .str("experiment", name)
            .val("seed", self.args.seed)
            .str("backend", self.args.backend.label())
            .val("jobs", self.jobs);
        for phase in phases {
            if phase.mc_only && !self.on_mc() {
                if !self.skip_noted {
                    self.skip_noted = true;
                    eprintln!(
                        "[--backend {}: the committed goldens pin the Memory Channel; \
                         golden-identity phases skipped]",
                        self.args.backend.label()
                    );
                }
                continue;
            }
            println!("== {name}: {}", phase.name);
            (phase.run)(self);
        }
        let failed = self.failures - before;
        if failed > 0 {
            eprintln!("FAIL: {failed} {name} check(s) failed");
        } else {
            println!("{name}: all checks passed");
        }
        self.doc
            .val("cells", json_arr(&self.cells))
            .val("failures", failed);
        doc.then(|| self.doc.finish() + "\n")
    }

    /// Runs the gates the command line selected (all when it named none)
    /// and writes their documents; returns the process exit code.
    pub fn run(&mut self, gates: &[Gate]) -> i32 {
        for gate in gates {
            if !self.args.gates.is_empty() && !self.args.gates.iter().any(|n| n == gate.name) {
                continue;
            }
            if let Some(doc) = self.run_phases(gate.name, gate.doc, gate.phases) {
                let path = self.path(&format!("BENCH_{}.json", gate.name));
                std::fs::write(&path, doc).expect("write gate document");
                eprintln!("[wrote {}]", path.display());
            }
        }
        self.exit_code()
    }

    /// Nonzero once any check has failed.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failures > 0)
    }
}

/// A context over a fresh scratch root (under `target/`) holding copies of
/// the committed files the gates read.
#[cfg(test)]
pub(crate) fn scratch_ctx(name: &str, args: Args) -> Ctx {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = repo.join(format!("target/tmp/gate-{name}-{}", std::process::id()));
    std::fs::create_dir_all(root.join("results")).unwrap();
    for file in ["vt_golden.jsonl", "table2.jsonl"] {
        std::fs::copy(
            repo.join("results").join(file),
            root.join("results").join(file),
        )
        .unwrap();
    }
    let mut ctx = Ctx::new(args);
    ctx.root = root;
    ctx.capture = false;
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::{GATES, LOSSY_LINK};
    use cashmere_apps::Sor;
    use cashmere_core::{ProtocolEvent, TraceEvent};

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from), &GATES)
    }

    #[test]
    fn parser_takes_the_documented_lines_and_rejects_the_rest() {
        let a = parse("obsgate --trace Water:2L").unwrap();
        assert_eq!(a.gates, ["obsgate"]);
        assert!(!a.obs);
        assert_eq!(a.trace, Some(("Water".into(), "2L".into())));
        assert_eq!((a.seed, a.backend), (DEFAULT_SEED, Backend::MemoryChannel));
        let a = parse("soak service --obs --seed 7 --backend rdma").unwrap();
        assert_eq!(a.gates, ["soak", "service"]);
        assert!(a.obs);
        assert_eq!((a.seed, a.backend), (7, Backend::Rdma));
        assert_eq!(parse("").unwrap(), Args::default());

        assert!(parse("--trace Water").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--backend ethernet").is_err());
        let unknown = parse("goldn").unwrap_err();
        for gate in &GATES {
            assert!(unknown.contains(gate.name), "{unknown}");
        }
    }

    fn sweep_cells(apps: &[Box<dyn Benchmark>]) -> Vec<Cell<'_>> {
        let protocols = [ProtocolKind::TwoLevel, ProtocolKind::OneLevelDiff];
        matrix(apps, &protocols, |p| paper_spec(p, 4, 2))
    }

    /// Four workers must deliver callbacks in list order — apps outermost —
    /// with every cell computing the same answer as under one: the pool only
    /// changes host scheduling, never what a cell computes or the order it
    /// is reported in.
    #[test]
    fn executor_delivers_in_list_order_at_any_job_count() {
        let apps = suite(Scale::Test);
        let cells = sweep_cells(&apps[..3]);
        let order = |jobs| {
            let mut seen = Vec::new();
            run_cells(&cells, jobs, |d, cluster| {
                assert_eq!(cluster.config().protocol, d.cell.spec.protocol);
                seen.push((d.app(), d.protocol(), d.outcome.checksum));
            });
            seen
        };
        let serial = order(1);
        assert_eq!(serial, order(4));
        assert_eq!(serial.len(), 6);
        assert_eq!((serial[0].0, serial[0].1), (apps[0].name(), "2L"));
        assert_eq!((serial[1].0, serial[1].1), (apps[0].name(), "1LD"));
    }

    #[test]
    fn plans_are_rebuilt_per_cell_and_spec_toggles_thread_through() {
        let apps = suite(Scale::Test);
        let plain = matrix(&apps[..1], &[ProtocolKind::TwoLevel], |p| {
            paper_spec(p, 4, 2).with_seed(7)
        });
        let done = collect_cells(&plain, 1);
        assert!(done[0].trace.is_empty(), "no audit requested");
        assert!(done[0].outcome.report.obs.is_none(), "no obs requested");

        let mut lossy = plain.clone();
        lossy[0].spec = lossy[0].spec.clone().with_audit(true).with_obs(true);
        let lossy = cross_plans(lossy, &[LOSSY_LINK]);
        let done = collect_cells(&lossy, 1);
        let d = &done[0];
        assert_eq!(d.cell.tag, "lossy-link");
        assert!(!d.trace.is_empty(), "audit recorded a trace");
        let report = &d.outcome.report;
        assert_eq!(
            report.recovery.fault_seed,
            Some(7),
            "plan built from the seed"
        );
        assert!(report.recovery.faults_total() > 0, "fresh plan injected");
        let obs = report.obs.as_ref().expect("obs requested");
        assert_eq!(obs.fig7.total(), report.breakdown.total());
    }

    #[test]
    fn golden_regenerates_once_however_many_phases_ask() {
        let mut ctx = scratch_ctx("golden-once", Args::default());
        ctx.run_phases("first", false, &[GOLDEN]);
        ctx.run_phases("second", true, &[GOLDEN, GOLDEN]);
        assert_eq!(ctx.golden_runs, 1);
        assert_eq!(ctx.failures, 0, "committed goldens are current");
        assert_eq!(ctx.golden_verdict(), "ok");
        assert!(!ctx.skip_noted);
    }

    #[test]
    fn a_drifted_golden_is_counted_by_every_gate_that_asks() {
        let mut ctx = scratch_ctx("golden-drift", Args::default());
        let golden = ctx.path("results/vt_golden.jsonl");
        let committed = std::fs::read_to_string(&golden).unwrap();
        std::fs::write(
            &golden,
            committed.replacen("\"exec_ns\":", "\"exec_ns\":1", 1),
        )
        .unwrap();
        let doc = ctx.run_phases("first", true, &[GOLDEN]).expect("doc kept");
        assert!(doc.ends_with("\"failures\":1}\n"), "{doc}");
        ctx.run_phases("second", false, &[GOLDEN]);
        assert_eq!((ctx.golden_runs, ctx.failures), (1, 2));
        assert_eq!(ctx.golden_verdict(), "drift");
        assert_eq!(ctx.exit_code(), 1);
    }

    #[test]
    fn off_the_memory_channel_golden_phases_are_skipped_with_one_note() {
        let args = Args {
            backend: Backend::Cxl,
            ..Args::default()
        };
        let mut ctx = scratch_ctx("golden-skip", args);
        ctx.run_phases("first", false, &[GOLDEN]);
        assert!(ctx.skip_noted);
        ctx.run_phases("second", false, &[GOLDEN, GOLDEN]);
        assert_eq!((ctx.golden_runs, ctx.failures), (0, 0));
        assert_eq!(ctx.golden_verdict(), "skipped");
    }

    #[test]
    fn a_wrong_checksum_and_a_dirty_trace_each_fail_the_process() {
        let app = Sor::new(Scale::Test);
        let cells = [Cell::new(
            &app,
            paper_spec(ProtocolKind::TwoLevel, 4, 2).with_audit(true),
        )];
        let mut done = collect_cells(&cells, 1).remove(0);
        let want = done.outcome.checksum;
        let mut ctx = Ctx::new(Args::default());
        assert_eq!(ctx.check(&done, want), (true, true));
        assert_eq!((ctx.failures, ctx.exit_code()), (0, 0));

        assert_eq!(ctx.check(&done, want ^ 1), (false, true));
        assert_eq!((ctx.failures, ctx.exit_code()), (1, 1));

        // Duplicate a logical-clock draw, as a broken relaxed-atomics clock
        // would log it.
        let tick = |te: &TraceEvent| matches!(te.ev, ProtocolEvent::ClockTick { .. });
        let mut tampered = done.trace.to_vec();
        let i = tampered.iter().position(tick).expect("every run ticks");
        tampered.insert(i + 1, tampered[i].clone());
        done.audit = audit(&tampered);
        assert_eq!(ctx.check(&done, want), (true, false));
        assert_eq!((ctx.failures, ctx.exit_code()), (2, 1));
    }
}
