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
//! JSON record to `results/` (used to assemble EXPERIMENTS.md). A run is
//! described by a [`RunSpec`] and nothing else: [`paper_spec`] names a
//! paper configuration, [`cashmere_apps::run_app`] runs an application
//! under one.
//!
//! The gates — golden, soak, obsgate, service, scaling, detpar, xbackend
//! — are phase lists ([`gates`]) over one harness ([`gate`]) behind one
//! binary, `gate` (`scripts/gate.sh`; DESIGN.md §16).

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::io::Write as _;
use std::path::Path;

use cashmere_apps::{run_app, AppOutcome, Benchmark};
use cashmere_core::{Nanos, ProtocolKind, RunSpec, Topology};
use cashmere_obs::json::push_str_escaped;

pub mod gate;
pub mod gates;
pub mod golden;
pub mod obsout;

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

/// The spec of `protocol` on the paper configuration `total`:`per_node`
/// with every toggle at its default.
#[must_use]
pub fn paper_spec(protocol: ProtocolKind, total: usize, per_node: usize) -> RunSpec {
    let topo = Topology::from_paper_config(total, per_node)
        .unwrap_or_else(|| panic!("bad paper config {total}:{per_node}"));
    RunSpec::new(topo, protocol)
}

/// A topology in the paper's `P:k` notation (total processors : per node).
#[must_use]
pub fn config_label(topology: &Topology) -> String {
    format!("{}:{}", topology.total_procs(), topology.procs_per_node())
}

/// The paper's sequential baseline: one processor, uninstrumented.
pub fn sequential(app: &dyn Benchmark) -> AppOutcome {
    run_app(app, &sequential_spec()).0
}

/// The spec [`sequential`] runs under.
#[must_use]
pub fn sequential_spec() -> RunSpec {
    paper_spec(ProtocolKind::TwoLevel, 1, 1).uninstrumented(true)
}

/// Best-of-`n` run (the paper's "execution times were calculated based on
/// the best of three runs") — returns the outcome with the smallest
/// simulated execution time. Useful for the nondeterministic applications
/// (TSP's pruning, Water/Barnes's dynamic scheduling).
pub fn execute_best(app: &dyn Benchmark, spec: &RunSpec, n: usize) -> AppOutcome {
    (0..n.max(1))
        .map(|_| run_app(app, spec).0)
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
        spec: &RunSpec,
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
            protocol: spec.protocol.label().to_string(),
            config: config_label(&spec.topology),
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

    /// Serializes the record as one JSON object.
    pub fn to_json(&self) -> String {
        let breakdown = self.breakdown.iter().map(|(k, v)| (k, fmt_json_f64(*v)));
        Obj::new()
            .str("experiment", self.experiment)
            .str("app", &self.app)
            .str("protocol", &self.protocol)
            .str("config", &self.config)
            .f64("exec_secs", self.exec_secs)
            .f64("speedup", self.speedup)
            .val("counters", json_map(&self.counters))
            .val("breakdown", json_map(breakdown))
            .finish()
    }
}

/// One JSON object under construction — the crate's only JSON writer (the
/// container has no registry access, so there is no serde). Fields appear
/// in call order; strings are escaped by
/// [`cashmere_obs::json::push_str_escaped`], the writer half of the parser
/// every reader in this crate uses.
#[derive(Debug, Clone)]
pub struct Obj(String);

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// An object with no fields yet.
    #[must_use]
    pub fn new() -> Self {
        Self(String::from("{"))
    }

    /// Appends `"key":value`, `value` rendered by `Display`: integers,
    /// booleans, and already-rendered objects and arrays.
    pub fn val(&mut self, key: &str, value: impl Display) -> &mut Self {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        push_str_escaped(&mut self.0, key);
        let _ = write!(self.0, ":{value}");
        self
    }

    /// Appends `"key":"value"` with the value escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let mut quoted = String::with_capacity(value.len() + 2);
        push_str_escaped(&mut quoted, value);
        self.val(key, quoted)
    }

    /// Appends `"key":<number>` (JSON has no NaN/Infinity; both map to 0).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.val(key, fmt_json_f64(value))
    }

    /// The finished object.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{}}}", self.0)
    }
}

/// Renders `(key, value)` pairs as a JSON object, values by `Display`.
pub fn json_map<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, impl Display)>) -> String {
    let mut o = Obj::new();
    for (k, v) in fields {
        o.val(k.as_ref(), v);
    }
    o.finish()
}

/// Renders already-rendered items as a JSON array.
pub fn json_arr(items: impl IntoIterator<Item = impl Display>) -> String {
    let mut s = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{item}");
    }
    s.push(']');
    s
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

/// The numeric `field` of the first line of a JSONL file whose string
/// fields match every `(key, value)` in `keys`.
#[must_use]
pub fn jsonl_field(jsonl: &str, keys: &[(&str, &str)], field: &str) -> Option<f64> {
    jsonl
        .lines()
        .filter_map(|l| cashmere_obs::json::parse(l).ok())
        .find(|v| {
            keys.iter()
                .all(|(k, want)| v.get(k).and_then(|f| f.as_str()) == Some(want))
        })
        .and_then(|v| v.get(field)?.as_f64())
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
        let spec = paper_spec(ProtocolKind::TwoLevel, 4, 2);
        let par = run_app(&app, &spec).0;
        assert_eq!(par.checksum, seq.checksum);
        let rec = Record::new("test", "SOR", &spec, &par, seq.report.exec_ns);
        assert_eq!(rec.config, "4:2");
        assert!(rec.speedup > 0.0);
        assert!(rec.counters.contains_key("page_transfers"));
        let json = rec.to_json();
        assert!(json.starts_with("{\"experiment\":\"test\""));
        assert!(json.contains("\"counters\":{"));
        let v = cashmere_obs::json::parse(&json).expect("record is valid JSON");
        assert_eq!(v.get("config").and_then(|c| c.as_str()), Some("4:2"));
        assert_eq!(
            jsonl_field(&json, &[("app", "SOR"), ("config", "4:2")], "speedup"),
            Some(rec.speedup)
        );
        assert_eq!(jsonl_field(&json, &[("app", "LU")], "speedup"), None);
    }

    #[test]
    fn json_escaping_and_nonfinite_floats() {
        let doc = Obj::new()
            .str("k", "a\"b\\c\nd\u{1}")
            .val("n", json_arr([1, 2]))
            .finish();
        assert_eq!(doc, "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\",\"n\":[1,2]}");
        assert_eq!(fmt_json_f64(f64::NAN), "0.0");
        assert_eq!(fmt_json_f64(1.5), "1.5");
        assert_eq!(fmt_json_f64(2.0), "2.0");
    }
}
