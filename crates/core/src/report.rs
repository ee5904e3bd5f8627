//! Run reports: simulated execution time, the Figure 6 time breakdown, the
//! Table 3 counters, optional observability results, and a JSON round-trip.

use std::fmt::Write as _;

use cashmere_obs::json::{self, push_str_escaped, Value};
use cashmere_obs::ObsReport;
use cashmere_sim::{Nanos, ProcClock, TimeBreakdown, TimeCategory};

use crate::config::ProtocolKind;
use crate::recovery::{RecoveryCounts, RecoverySummary};
use crate::run::RunSpec;

/// The event counters of Table 3 ("Detailed statistics … at 32
/// processors"). Plain integers: every processor counts into its own
/// [`Tally`] and the values are summed after the run, which is also how the
/// paper's table is "aggregated over all 32 processors".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Lock and flag acquires.
    pub lock_acquires: u64,
    /// Barrier episodes.
    pub barriers: u64,
    /// Read page faults.
    pub read_faults: u64,
    /// Write page faults.
    pub write_faults: u64,
    /// Page transfers from home nodes.
    pub page_transfers: u64,
    /// Global directory updates.
    pub directory_updates: u64,
    /// Write notices sent.
    pub write_notices: u64,
    /// Exclusive-mode transitions (in or out).
    pub exclusive_transitions: u64,
    /// Bytes moved across the Memory Channel.
    pub data_bytes: u64,
    /// Twins created.
    pub twin_creations: u64,
    /// Incoming (two-way) diffs applied.
    pub incoming_diffs: u64,
    /// Flush-update operations.
    pub flush_updates: u64,
    /// Shootdowns performed.
    pub shootdowns: u64,
    /// First-touch home relocations.
    pub home_relocations: u64,
    /// Explicit remote requests.
    pub remote_requests: u64,
}

impl Counters {
    /// Labelled snapshot of every counter, in Table 3 order.
    #[must_use]
    pub fn pairs(&self) -> [(&'static str, u64); 15] {
        [
            ("lock_acquires", self.lock_acquires),
            ("barriers", self.barriers),
            ("read_faults", self.read_faults),
            ("write_faults", self.write_faults),
            ("page_transfers", self.page_transfers),
            ("directory_updates", self.directory_updates),
            ("write_notices", self.write_notices),
            ("exclusive_transitions", self.exclusive_transitions),
            ("data_bytes", self.data_bytes),
            ("twin_creations", self.twin_creations),
            ("incoming_diffs", self.incoming_diffs),
            ("flush_updates", self.flush_updates),
            ("shootdowns", self.shootdowns),
            ("home_relocations", self.home_relocations),
            ("remote_requests", self.remote_requests),
        ]
    }

    /// Sets a counter by its [`Self::pairs`] label; unknown names are
    /// ignored (forward compatibility).
    pub fn set(&mut self, name: &str, v: u64) {
        match name {
            "lock_acquires" => self.lock_acquires = v,
            "barriers" => self.barriers = v,
            "read_faults" => self.read_faults = v,
            "write_faults" => self.write_faults = v,
            "page_transfers" => self.page_transfers = v,
            "directory_updates" => self.directory_updates = v,
            "write_notices" => self.write_notices = v,
            "exclusive_transitions" => self.exclusive_transitions = v,
            "data_bytes" => self.data_bytes = v,
            "twin_creations" => self.twin_creations = v,
            "incoming_diffs" => self.incoming_diffs = v,
            "flush_updates" => self.flush_updates = v,
            "shootdowns" => self.shootdowns = v,
            "home_relocations" => self.home_relocations = v,
            "remote_requests" => self.remote_requests = v,
            _ => {}
        }
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &Counters) {
        self.lock_acquires += other.lock_acquires;
        self.barriers += other.barriers;
        self.read_faults += other.read_faults;
        self.write_faults += other.write_faults;
        self.page_transfers += other.page_transfers;
        self.directory_updates += other.directory_updates;
        self.write_notices += other.write_notices;
        self.exclusive_transitions += other.exclusive_transitions;
        self.data_bytes += other.data_bytes;
        self.twin_creations += other.twin_creations;
        self.incoming_diffs += other.incoming_diffs;
        self.flush_updates += other.flush_updates;
        self.shootdowns += other.shootdowns;
        self.home_relocations += other.home_relocations;
        self.remote_requests += other.remote_requests;
    }
}

/// One processor's own numbers: the Table 3 counters and the recovery
/// counters, each bumped at exactly one engine site with a plain add. Owned
/// by the processor's context like its clock (single writer, no atomics);
/// [`crate::Cluster::run`] sums the tallies when the processors join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Table 3 events this processor caused.
    pub counters: Counters,
    /// Timeouts, retries and suppressed duplicates this processor, as the
    /// requester, recovered from.
    pub recovery: RecoveryCounts,
}

/// The known fault-injection counter labels (`FaultStats::snapshot`),
/// needed to map parsed JSON keys back to the summary's `&'static str`.
const FAULT_LABELS: [&str; 7] = [
    "writes_dropped",
    "writes_duplicated",
    "writes_delayed",
    "outage_stalls",
    "fetches_lost",
    "breaks_lost",
    "replies_duplicated",
];

/// The result of one [`crate::Cluster::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Protocol that produced this run.
    pub protocol: ProtocolKind,
    /// Processors in the run.
    pub procs: usize,
    /// Physical nodes in the run.
    pub nodes: usize,
    /// Simulated execution time: the maximum processor virtual time.
    pub exec_ns: Nanos,
    /// Per-processor virtual finish times.
    pub per_proc_ns: Vec<Nanos>,
    /// Merged per-category time across all processors (Figure 6).
    pub breakdown: TimeBreakdown,
    /// Cluster-wide event counters (Table 3).
    pub counters: Counters,
    /// Fault-recovery accounting (timeouts, retries, duplicates dropped,
    /// faults injected). All-zero for fault-free runs.
    pub recovery: RecoverySummary,
    /// Observability results (spans, metrics registry, Figure-7 breakdown,
    /// link traffic). `None` unless the run had
    /// [`crate::RunSpec::with_obs`] set.
    pub obs: Option<ObsReport>,
}

impl Report {
    /// Assembles a report from the summed counters and the collected
    /// processor clocks.
    pub fn build<'a>(
        cfg: &RunSpec,
        counters: Counters,
        clocks: impl IntoIterator<Item = &'a ProcClock>,
    ) -> Self {
        let mut breakdown = TimeBreakdown::default();
        let mut per_proc = Vec::with_capacity(cfg.topology.total_procs());
        for c in clocks {
            breakdown.merge(c.breakdown());
            per_proc.push(c.now());
        }
        Self {
            protocol: cfg.protocol,
            procs: cfg.topology.total_procs(),
            nodes: cfg.topology.nodes(),
            exec_ns: per_proc.iter().copied().max().unwrap_or(0),
            per_proc_ns: per_proc,
            breakdown,
            counters,
            recovery: RecoverySummary::default(),
            obs: None,
        }
    }

    /// Attaches the engine's recovery summary (see
    /// [`crate::Engine::recovery_summary`]).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoverySummary) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attaches merged observability results.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsReport) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Simulated execution time in seconds.
    pub fn exec_secs(&self) -> f64 {
        self.exec_ns as f64 / 1e9
    }

    /// Speedup relative to a sequential execution time.
    pub fn speedup(&self, sequential_ns: Nanos) -> f64 {
        sequential_ns as f64 / self.exec_ns.max(1) as f64
    }

    /// Fraction of total processor time spent in `cat` (Figure 6's
    /// normalized components).
    pub fn fraction(&self, cat: TimeCategory) -> f64 {
        let total = self.breakdown.total();
        if total == 0 {
            0.0
        } else {
            self.breakdown.get(cat) as f64 / total as f64
        }
    }

    /// Serializes the full report (including `recovery` and `obs`) as one
    /// JSON object; [`Self::from_json`] inverts it exactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"protocol\":");
        push_str_escaped(&mut out, self.protocol.label());
        let _ = write!(
            out,
            ",\"procs\":{},\"nodes\":{},\"exec_ns\":{},\"per_proc_ns\":[",
            self.procs, self.nodes, self.exec_ns
        );
        for (i, ns) in self.per_proc_ns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{ns}");
        }
        out.push_str("],\"breakdown\":{");
        for (i, cat) in TimeCategory::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_escaped(&mut out, cat.label());
            let _ = write!(out, ":{}", self.breakdown.get(cat));
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.counters.pairs().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"recovery\":{\"per_node\":[");
        for (i, c) in self.recovery.per_node.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{},{}]",
                c.fetch_timeouts,
                c.fetch_retries,
                c.break_timeouts,
                c.break_retries,
                c.duplicates_dropped
            );
        }
        out.push_str("],\"faults_injected\":{");
        for (i, (name, v)) in self.recovery.faults_injected.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"fault_seed\":");
        match self.recovery.fault_seed {
            Some(s) => {
                let _ = write!(out, "{s}");
            }
            None => out.push_str("null"),
        }
        out.push_str("},\"obs\":");
        match &self.obs {
            Some(o) => out.push_str(&o.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Deserializes a document produced by [`Self::to_json`].
    pub fn from_json(doc: &str) -> Result<Self, String> {
        let v = json::parse(doc)?;
        let protocol = v
            .get("protocol")
            .and_then(Value::as_str)
            .and_then(ProtocolKind::from_label)
            .ok_or("missing or unknown protocol label")?;
        let int = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let mut per_proc_ns = Vec::new();
        for ns in v.get("per_proc_ns").and_then(Value::as_arr).unwrap_or(&[]) {
            per_proc_ns.push(ns.as_u64().ok_or("bad per_proc_ns entry")?);
        }
        let mut breakdown = TimeBreakdown::default();
        let bd = v.get("breakdown").ok_or("missing breakdown")?;
        for cat in TimeCategory::ALL {
            let ns = bd
                .get(cat.label())
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing breakdown bin {:?}", cat.label()))?;
            breakdown.add(cat, ns);
        }
        let mut counters = Counters::default();
        if let Some(Value::Obj(fields)) = v.get("counters") {
            for (name, val) in fields {
                counters.set(name, val.as_u64().ok_or("bad counter")?);
            }
        }
        let mut recovery = RecoverySummary::default();
        if let Some(rec) = v.get("recovery") {
            for node in rec.get("per_node").and_then(Value::as_arr).unwrap_or(&[]) {
                let p = node.as_arr().ok_or("bad per_node entry")?;
                if p.len() != 5 {
                    return Err("bad per_node entry".into());
                }
                let g = |i: usize| p[i].as_u64().ok_or("bad per_node entry");
                recovery.per_node.push(RecoveryCounts {
                    fetch_timeouts: g(0)?,
                    fetch_retries: g(1)?,
                    break_timeouts: g(2)?,
                    break_retries: g(3)?,
                    duplicates_dropped: g(4)?,
                });
            }
            if let Some(Value::Obj(fields)) = rec.get("faults_injected") {
                for (name, val) in fields {
                    // Map back to the fixed static label set; labels from a
                    // newer build are dropped rather than invented.
                    if let Some(label) = FAULT_LABELS.iter().find(|&&l| l == name) {
                        recovery
                            .faults_injected
                            .push((label, val.as_u64().ok_or("bad fault counter")?));
                    }
                }
            }
            recovery.fault_seed = rec.get("fault_seed").and_then(Value::as_u64);
        }
        let obs = match v.get("obs") {
            None | Some(Value::Null) => None,
            Some(o) => Some(ObsReport::from_json(o)?),
        };
        Ok(Self {
            protocol,
            procs: int("procs")? as usize,
            nodes: int("nodes")? as usize,
            exec_ns: int("exec_ns")?,
            per_proc_ns,
            breakdown,
            counters,
            recovery,
            obs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_sim::Topology;

    #[test]
    fn report_aggregates_clocks() {
        let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel);
        let counters = Counters {
            page_transfers: 7,
            ..Default::default()
        };
        let mut c0 = ProcClock::new();
        c0.charge(TimeCategory::User, 100);
        let mut c1 = ProcClock::new();
        c1.charge(TimeCategory::Protocol, 250);
        let r = Report::build(&cfg, counters, &[c0, c1]);
        assert_eq!(r.exec_ns, 250);
        assert_eq!(r.per_proc_ns, vec![100, 250]);
        assert_eq!(r.counters.page_transfers, 7);
        assert_eq!(r.breakdown.total(), 350);
        assert!((r.fraction(TimeCategory::User) - 100.0 / 350.0).abs() < 1e-12);
        assert!((r.speedup(500) - 2.0).abs() < 1e-12);
        assert!(r.recovery.total().is_zero(), "no recovery by default");
    }

    #[test]
    fn with_recovery_attaches_summary() {
        use crate::recovery::RecoveryCounts;
        let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel);
        let summary = RecoverySummary {
            per_node: vec![RecoveryCounts {
                fetch_retries: 3,
                ..Default::default()
            }],
            faults_injected: vec![("fetches_lost", 3)],
            fault_seed: Some(9),
        };
        let r =
            Report::build(&cfg, Counters::default(), &[ProcClock::new()]).with_recovery(summary);
        assert_eq!(r.recovery.total().fetch_retries, 3);
        assert_eq!(r.recovery.faults_total(), 3);
        assert_eq!(r.recovery.fault_seed, Some(9));
    }

    #[test]
    fn json_round_trip_is_exact() {
        use crate::recovery::RecoveryCounts;
        let cfg = RunSpec::new(Topology::new(2, 2), ProtocolKind::OneLevelDiff);
        let counters = Counters {
            twin_creations: 11,
            data_bytes: 4096,
            ..Default::default()
        };
        let mut c0 = ProcClock::new();
        c0.charge(TimeCategory::User, 100);
        c0.charge(TimeCategory::Polling, 7);
        let mut c1 = ProcClock::new();
        c1.charge(TimeCategory::Protocol, 250);
        let summary = RecoverySummary {
            per_node: vec![
                RecoveryCounts {
                    fetch_timeouts: 1,
                    break_retries: 2,
                    ..Default::default()
                },
                RecoveryCounts::default(),
            ],
            faults_injected: vec![("writes_dropped", 5), ("breaks_lost", 2)],
            fault_seed: Some(77),
        };
        let r = Report::build(&cfg, counters, &[c0, c1]).with_recovery(summary);
        let doc = r.to_json();
        let back = Report::from_json(&doc).expect("round trip");
        assert_eq!(back, r);
        // Serializing again must be byte-identical (stable ordering).
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn json_round_trip_with_obs() {
        let cfg = RunSpec::new(Topology::new(1, 2), ProtocolKind::TwoLevel);
        let mut obs = ObsReport::new();
        obs.procs = 4;
        obs.page_heat = vec![0, 3, 9];
        obs.spans_dropped = 1;
        let r = Report::build(&cfg, Counters::default(), &[ProcClock::new()]).with_obs(obs);
        let back = Report::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back, r);
        assert_eq!(back.obs.as_ref().map(|o| o.procs), Some(4));
    }

    /// A field `merge` forgets fails here: every field of both operands is
    /// a distinct prime, and the expected sums come from `pairs()`.
    #[test]
    fn counters_merge_covers_every_field_in_table3_order() {
        const PRIMES: [u64; 30] = [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
            89, 97, 101, 103, 107, 109, 113,
        ];
        let names = Counters::default().pairs().map(|(name, _)| name);
        assert_eq!(names[0], "lock_acquires");
        assert_eq!(names[14], "remote_requests");
        let (mut a, mut b) = (Counters::default(), Counters::default());
        for (i, name) in names.into_iter().enumerate() {
            a.set(name, PRIMES[i]);
            b.set(name, PRIMES[15 + i]);
        }
        let mut sum = a;
        sum.merge(&b);
        for (i, (name, v)) in sum.pairs().into_iter().enumerate() {
            assert_eq!(v, PRIMES[i] + PRIMES[15 + i], "{name} lost in merge");
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{\"protocol\":\"nope\"}").is_err());
    }
}
