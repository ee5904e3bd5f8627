//! Benchmark harness for regenerating every table and figure of the
//! Cashmere-2L evaluation (§3 of the paper).
//!
//! Binaries (one per artifact):
//!
//! | binary      | paper artifact |
//! |-------------|----------------|
//! | `table1`    | Table 1 — basic operation costs |
//! | `table2`    | Table 2 — data-set sizes and sequential times |
//! | `table3`    | Table 3 — detailed 32-processor statistics |
//! | `fig6`      | Figure 6 — normalized execution-time breakdown |
//! | `fig7`      | Figure 7 — speedups across cluster configurations |
//! | `shootdown` | §3.3.4 — shootdown vs two-way diffing, polling vs interrupts |
//! | `lockfree`  | §3.3.5 — lock-free vs global-lock protocol structures |
//!
//! Each binary prints a human-readable table and appends a machine-readable
//! JSON record to `results/` (used to assemble EXPERIMENTS.md).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use cashmere_apps::{AppOutcome, Benchmark};
use cashmere_core::{
    Backend, Cluster, DirectoryMode, FaultPlan, Messaging, Nanos, ProtocolKind, RunSpec, Topology,
    TraceEvent,
};

pub mod golden;
pub mod obsout;
pub mod sweep;

/// The paper's Figure 7 cluster configurations, as `(processors,
/// processes-per-node)` pairs: 4:1, 4:4, 8:1, 8:2, 8:4, 16:2, 16:4, 24:3,
/// 32:4.
pub const PAPER_CONFIGS: [(usize, usize); 9] = [
    (4, 1),
    (4, 4),
    (8, 1),
    (8, 2),
    (8, 4),
    (16, 2),
    (16, 4),
    (24, 3),
    (32, 4),
];

/// Options perturbing a run beyond protocol/topology.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Directory/write-notice locking ablation (§3.3.5). `None` keeps the
    /// topology default ([`DirectoryMode::default_for`]: the paper's
    /// replicated lock-free directory up to 8 physical nodes, home-sharded
    /// `Sparse` beyond).
    pub directory: Option<DirectoryMode>,
    /// Interconnect backend (DESIGN.md §14). [`Backend::MemoryChannel`]
    /// (the default) is the paper's network and what every golden assumes;
    /// `rdma`/`cxl` swap the cost model and the page-fetch shape.
    pub backend: Backend,
    /// Request-delivery mechanism (§3.3.4).
    pub messaging: Messaging,
    /// Force the polling-overhead fraction to zero (the paper's
    /// "uninstrumented" sequential runs).
    pub uninstrumented: bool,
    /// Record observability data (`Report::obs`): spans, the Figure-7
    /// breakdown, counters/histograms, page heat, and link traffic.
    pub obs: bool,
    /// Run the simulated processors on this many host workers under the
    /// deterministic parallel engine (DESIGN.md §15). `None` keeps the
    /// sequential engine — the mode every committed golden was captured
    /// under (the det engine reproduces them byte-for-byte; the `detpar`
    /// gate asserts it).
    pub det_workers: Option<usize>,
}

/// Parses the value of a `--backend` flag shared by every driver binary
/// (`mc`, `rdma`, or `cxl` — [`Backend::label`]); panics with the accepted
/// set otherwise.
pub fn parse_backend(value: Option<String>) -> Backend {
    let v = value.unwrap_or_else(|| panic!("--backend requires one of mc, rdma, cxl"));
    Backend::from_label(&v)
        .unwrap_or_else(|| panic!("unknown backend {v:?} (supported: mc, rdma, cxl)"))
}

/// Runs `app` under `protocol` on a `total`:`per_node` configuration.
pub fn run(
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    total: usize,
    per_node: usize,
    opts: RunOpts,
) -> AppOutcome {
    run_with(app, protocol, total, per_node, opts, None, false).0
}

/// [`run`] with the fault-injection and auditing knobs exposed: installs
/// `plan` (when given) before the cluster is built and, when `audit` is
/// set, records the protocol event stream and returns it alongside the
/// outcome for `cashmere_check::audit`. The trace is empty when `audit`
/// is off.
pub fn run_with(
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    total: usize,
    per_node: usize,
    opts: RunOpts,
    plan: Option<Arc<FaultPlan>>,
    audit: bool,
) -> (AppOutcome, Vec<TraceEvent>) {
    let mut cluster = build_with(app, protocol, total, per_node, opts, plan, audit);
    let out = app.execute(&mut cluster);
    let trace = cluster.take_trace();
    (out, trace)
}

/// The cluster [`run_with`] executes `app` on, for callers that want to
/// look at it after the run.
pub fn build_with(
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    total: usize,
    per_node: usize,
    opts: RunOpts,
    plan: Option<Arc<FaultPlan>>,
    audit: bool,
) -> Cluster {
    let topo = Topology::from_paper_config(total, per_node)
        .unwrap_or_else(|| panic!("bad paper config {total}:{per_node}"));
    let mut spec = RunSpec::new(topo, protocol)
        .with_directory(
            opts.directory
                .unwrap_or_else(|| DirectoryMode::default_for(&topo)),
        )
        .with_transport(opts.backend)
        .with_messaging(opts.messaging)
        .uninstrumented(opts.uninstrumented)
        .with_audit(audit)
        .with_obs(opts.obs);
    if let Some(w) = opts.det_workers {
        spec = spec.with_det_parallel(w);
    }
    if let Some(p) = plan {
        spec = spec.with_faults(p);
    }
    spec.build_cluster(|cfg| app.configure(cfg))
}

/// The paper's sequential baseline: one processor, uninstrumented.
pub fn sequential(app: &dyn Benchmark) -> AppOutcome {
    sequential_with(app, None, false).0
}

/// [`sequential`] with an optional fault plan installed and, when `audit`
/// is set, the recorded protocol event stream (used by the soak harness to
/// prove a zero-fault plan leaves the deterministic baselines untouched).
pub fn sequential_with(
    app: &dyn Benchmark,
    plan: Option<Arc<FaultPlan>>,
    audit: bool,
) -> (AppOutcome, Vec<TraceEvent>) {
    run_with(
        app,
        ProtocolKind::TwoLevel,
        1,
        1,
        RunOpts {
            uninstrumented: true,
            ..Default::default()
        },
        plan,
        audit,
    )
}

/// Best-of-`n` run (the paper's "execution times were calculated based on
/// the best of three runs") — returns the outcome with the smallest
/// simulated execution time. Useful for the nondeterministic applications
/// (TSP's pruning, Water/Barnes's dynamic scheduling).
pub fn run_best(
    app: &dyn Benchmark,
    protocol: ProtocolKind,
    total: usize,
    per_node: usize,
    opts: RunOpts,
    n: usize,
) -> AppOutcome {
    (0..n.max(1))
        .map(|_| run(app, protocol, total, per_node, opts))
        .min_by_key(|o| o.report.exec_ns)
        .expect("n >= 1")
}

/// A machine-readable record of one experiment, written under `results/`.
#[derive(Debug)]
pub struct Record {
    /// Artifact id (`table3`, `fig7`, …).
    pub experiment: &'static str,
    /// Application name.
    pub app: String,
    /// Protocol label.
    pub protocol: String,
    /// `P:k` configuration.
    pub config: String,
    /// Simulated execution seconds.
    pub exec_secs: f64,
    /// Speedup vs the sequential baseline (0 when not applicable).
    pub speedup: f64,
    /// Table 3 counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Figure 6 breakdown fractions.
    pub breakdown: BTreeMap<&'static str, f64>,
}

impl Record {
    /// Builds a record from an outcome.
    pub fn new(
        experiment: &'static str,
        app: &str,
        protocol: ProtocolKind,
        total: usize,
        per_node: usize,
        out: &AppOutcome,
        sequential_ns: Nanos,
    ) -> Self {
        use cashmere_core::TimeCategory;
        let c = out.report.counters;
        let counters: BTreeMap<&'static str, u64> = [
            ("lock_acquires", c.lock_acquires),
            ("barriers", c.barriers),
            ("read_faults", c.read_faults),
            ("write_faults", c.write_faults),
            ("page_transfers", c.page_transfers),
            ("directory_updates", c.directory_updates),
            ("write_notices", c.write_notices),
            ("exclusive_transitions", c.exclusive_transitions),
            ("data_bytes", c.data_bytes),
            ("twin_creations", c.twin_creations),
            ("incoming_diffs", c.incoming_diffs),
            ("flush_updates", c.flush_updates),
            ("shootdowns", c.shootdowns),
        ]
        .into();
        let breakdown: BTreeMap<&'static str, f64> = TimeCategory::ALL
            .iter()
            .map(|&cat| (cat.label(), out.report.fraction(cat)))
            .collect();
        Self {
            experiment,
            app: app.to_string(),
            protocol: protocol.label().to_string(),
            config: format!("{total}:{per_node}"),
            exec_secs: out.report.exec_secs(),
            speedup: if sequential_ns > 0 {
                out.report.speedup(sequential_ns)
            } else {
                0.0
            },
            counters,
            breakdown,
        }
    }

    /// Serializes the record as one JSON object (no external deps — the
    /// container has no registry access, so the encoder is hand-rolled).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        json_str(&mut s, "experiment", self.experiment);
        s.push(',');
        json_str(&mut s, "app", &self.app);
        s.push(',');
        json_str(&mut s, "protocol", &self.protocol);
        s.push(',');
        json_str(&mut s, "config", &self.config);
        s.push(',');
        json_f64(&mut s, "exec_secs", self.exec_secs);
        s.push(',');
        json_f64(&mut s, "speedup", self.speedup);
        s.push(',');
        json_key(&mut s, "counters");
        s.push('{');
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_key(&mut s, k);
            s.push_str(&v.to_string());
        }
        s.push_str("},");
        json_key(&mut s, "breakdown");
        s.push('{');
        for (i, (k, v)) in self.breakdown.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json_key(&mut s, k);
            s.push_str(&fmt_json_f64(*v));
        }
        s.push_str("}}");
        s
    }
}

/// Appends `"key":` with the key JSON-escaped.
pub fn json_key(out: &mut String, key: &str) {
    out.push('"');
    json_escape_into(out, key);
    out.push_str("\":");
}

/// Appends `"key":"value"` with both sides JSON-escaped.
pub fn json_str(out: &mut String, key: &str, value: &str) {
    json_key(out, key);
    out.push('"');
    json_escape_into(out, value);
    out.push('"');
}

/// Appends `"key":<number>`.
pub fn json_f64(out: &mut String, key: &str, value: f64) {
    json_key(out, key);
    out.push_str(&fmt_json_f64(value));
}

/// Formats an f64 as a JSON number (JSON has no NaN/Infinity; map to 0).
pub fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a `.` or `e`.
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string per RFC 8259 minimal rules.
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Appends records as JSON lines to `results/<experiment>.jsonl`.
pub fn save_records(experiment: &str, records: &[Record]) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{experiment}.jsonl"));
    let mut f = std::fs::File::create(&path).expect("create results file");
    for r in records {
        writeln!(f, "{}", r.to_json()).expect("write record");
    }
    eprintln!("[saved {} records to {}]", records.len(), path.display());
}

/// Pretty-prints a value with K/M suffixes like the paper's Table 3.
pub fn fmt_k(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.2}M", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.2}K", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// Formats megabytes like the paper's "Data (Mbytes)" row.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_apps::{Scale, Sor};

    #[test]
    fn paper_configs_are_all_valid() {
        for (total, per_node) in PAPER_CONFIGS {
            assert!(
                Topology::from_paper_config(total, per_node).is_some(),
                "{total}:{per_node}"
            );
        }
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_k(42), "42");
        assert_eq!(fmt_k(4_250), "4.25K");
        assert_eq!(fmt_k(4_250_000), "4.25M");
        assert_eq!(fmt_mb(4_250_000), "4.25");
    }

    #[test]
    fn sequential_baseline_and_speedup_record() {
        let app = Sor::new(Scale::Test);
        let seq = sequential(&app);
        assert!(seq.report.exec_ns > 0);
        let par = run(&app, ProtocolKind::TwoLevel, 4, 2, RunOpts::default());
        assert_eq!(par.checksum, seq.checksum);
        let rec = Record::new(
            "test",
            "SOR",
            ProtocolKind::TwoLevel,
            4,
            2,
            &par,
            seq.report.exec_ns,
        );
        assert_eq!(rec.config, "4:2");
        assert!(rec.speedup > 0.0);
        assert!(rec.counters.contains_key("page_transfers"));
        let json = rec.to_json();
        assert!(json.starts_with("{\"experiment\":\"test\""));
        assert!(json.contains("\"counters\":{"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn json_escaping_and_nonfinite_floats() {
        let mut s = String::new();
        json_str(&mut s, "k", "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"k\":\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(fmt_json_f64(f64::NAN), "0.0");
        assert_eq!(fmt_json_f64(1.5), "1.5");
        assert_eq!(fmt_json_f64(2.0), "2.0");
    }
}
