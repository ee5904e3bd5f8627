//! Protocol observability for the Cashmere-2L reproduction.
//!
//! This crate is the measurement layer the evaluation sections of the paper
//! stand on: a per-processor virtual-time **span stack** ([`ProcObs`],
//! [`Span`]), a typed **metrics registry** ([`MetricsRegistry`],
//! [`VtHistogram`], [`LinkMetrics`]), **Figure-7 accounting**
//! ([`Fig7Breakdown`]: task / sync / protocol / wait / message derived from
//! the simulator's Figure-6 bins), and a **Chrome `trace_event` exporter**
//! ([`chrome`]) with a schema lint.
//!
//! Two properties are load-bearing and tested end to end by the bench gates:
//!
//! * **Charge-free**: nothing here ever charges a [`ProcClock`] — hooks only
//!   read clocks, so enabling observability cannot move a single virtual
//!   nanosecond and the deterministic goldens stay byte-identical.
//! * **Free when off**: the engine stores `Option<Box<ProcObs>>` per
//!   processor (`None` unless `RunSpec::with_obs`), so the disabled
//!   cost is one discriminant test per hook site and zero allocations.
//!
//! Layering: this crate depends only on `cashmere-sim`, so both `memchan`
//! (link traffic) and `core` (engine hooks) can feed it without a cycle.

pub mod chrome;
pub mod fig7;
pub mod json;
pub mod metrics;
pub mod span;

pub use fig7::{Fig7Breakdown, Fig7Cat};
pub use metrics::{LinkCounts, LinkMetrics, MetricsRegistry, VtHistogram, HIST_BINS};
pub use span::{ProcObs, Span, SpanKind, MAX_SPANS};

use std::fmt::Write as _;

use cashmere_sim::Nanos;

use json::{push_str_escaped, Value};

/// Cluster-wide observability results: every processor's [`ProcObs`] merged,
/// plus the Memory Channel's per-link traffic.
///
/// Carried on `Report::obs` when observability was enabled; serializes to
/// JSON (and back) with the rest of the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Number of processors merged in.
    pub procs: u32,
    /// Figure-7 time breakdown summed over processors; its
    /// [`Fig7Breakdown::total`] equals the run's total virtual time.
    pub fig7: Fig7Breakdown,
    /// Latency histograms and the obs-only event counts, cluster-wide.
    pub metrics: MetricsRegistry,
    /// Fault count per heap page, summed over processors.
    pub page_heat: Vec<u64>,
    /// Memory Channel traffic per link.
    pub links: Vec<LinkCounts>,
    /// Every finished span (bounded per processor by [`MAX_SPANS`]).
    pub spans: Vec<Span>,
    /// Spans discarded because a processor hit [`MAX_SPANS`].
    pub spans_dropped: u64,
    /// Spans force-closed at processor exit.
    pub spans_unclosed: u64,
    /// Begin/end kind mismatches observed.
    pub spans_mismatched: u64,
}

impl ObsReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished processor's state in. Call after
    /// [`ProcObs::finish`].
    pub fn merge_proc(&mut self, p: &ProcObs) {
        self.procs += 1;
        self.fig7.merge(p.fig7());
        self.metrics.merge(&p.metrics);
        if self.page_heat.len() < p.page_heat().len() {
            self.page_heat.resize(p.page_heat().len(), 0);
        }
        for (acc, h) in self.page_heat.iter_mut().zip(p.page_heat().iter()) {
            *acc += u64::from(*h);
        }
        self.spans.extend_from_slice(p.spans());
        let (dropped, unclosed, mismatched) = p.anomalies();
        self.spans_dropped += dropped;
        self.spans_unclosed += unclosed;
        self.spans_mismatched += mismatched;
    }

    /// Pages sorted by heat (descending), hottest first, zero-heat pages
    /// omitted; at most `top` entries.
    #[must_use]
    pub fn hot_pages(&self, top: usize) -> Vec<(usize, u64)> {
        let mut pages: Vec<(usize, u64)> = self
            .page_heat
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h > 0)
            .map(|(i, &h)| (i, h))
            .collect();
        pages.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pages.truncate(top);
        pages
    }

    /// Serializes to a single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.spans.len() * 48);
        let _ = write!(out, "{{\"procs\":{}", self.procs);
        out.push_str(",\"fig7\":{");
        for (i, c) in Fig7Cat::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.label(), self.fig7.get(c));
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.metrics.counters().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        out.push_str("},\"hist\":{");
        let hists = [
            ("fetch_rtt", &self.metrics.fetch_rtt),
            ("break_rtt", &self.metrics.break_rtt),
            ("fault_ns", &self.metrics.fault_ns),
            ("sojourn_ns", &self.metrics.sojourn_ns),
        ];
        for (i, (name, h)) in hists.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"bins\":[",
                h.count, h.sum, h.max
            );
            let mut first = true;
            for (bin, &n) in h.bins.iter().enumerate() {
                if n > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{bin},{n}]");
                }
            }
            out.push_str("]}");
        }
        out.push_str("},\"page_heat\":[");
        for (i, h) in self.page_heat.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{h}");
        }
        out.push_str("],\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", l.messages, l.bytes);
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            push_str_escaped(&mut out, s.kind.label());
            let _ = write!(
                out,
                ",{},{},{},{},{}]",
                s.node, s.proc, s.begin, s.end, s.page
            );
        }
        let _ = write!(
            out,
            "],\"spans_dropped\":{},\"spans_unclosed\":{},\"spans_mismatched\":{}}}",
            self.spans_dropped, self.spans_unclosed, self.spans_mismatched
        );
        out
    }

    /// Deserializes a value produced by [`Self::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let mut r = ObsReport::new();
        r.procs = u64_field(v, "procs")? as u32;
        let fig7 = v.get("fig7").ok_or("missing fig7")?;
        for c in Fig7Cat::ALL {
            r.fig7.add(c, u64_field(fig7, c.label())?);
        }
        if let Some(Value::Obj(fields)) = v.get("counters") {
            for (name, val) in fields {
                r.metrics
                    .set_counter(name, val.as_u64().ok_or("bad counter")?);
            }
        }
        if let Some(h) = v.get("hist") {
            for (name, slot) in [
                ("fetch_rtt", &mut r.metrics.fetch_rtt),
                ("break_rtt", &mut r.metrics.break_rtt),
                ("fault_ns", &mut r.metrics.fault_ns),
                ("sojourn_ns", &mut r.metrics.sojourn_ns),
            ] {
                // Absent histograms (reports written by older builds) stay
                // empty rather than failing the parse.
                let Some(hv) = h.get(name) else { continue };
                slot.count = u64_field(hv, "count")?;
                slot.sum = u64_field(hv, "sum")?;
                slot.max = u64_field(hv, "max")?;
                for pair in hv.get("bins").and_then(Value::as_arr).unwrap_or(&[]) {
                    let p = pair.as_arr().ok_or("bad hist bin")?;
                    let bin = p[0].as_u64().ok_or("bad hist bin")? as usize;
                    if bin < HIST_BINS {
                        slot.bins[bin] = p[1].as_u64().ok_or("bad hist bin")?;
                    }
                }
            }
        }
        for h in v.get("page_heat").and_then(Value::as_arr).unwrap_or(&[]) {
            r.page_heat.push(h.as_u64().ok_or("bad page_heat")?);
        }
        for l in v.get("links").and_then(Value::as_arr).unwrap_or(&[]) {
            let p = l.as_arr().ok_or("bad link entry")?;
            r.links.push(LinkCounts {
                messages: p[0].as_u64().ok_or("bad link entry")?,
                bytes: p[1].as_u64().ok_or("bad link entry")?,
            });
        }
        for s in v.get("spans").and_then(Value::as_arr).unwrap_or(&[]) {
            let p = s.as_arr().ok_or("bad span entry")?;
            if p.len() != 6 {
                return Err("bad span entry".into());
            }
            let kind = p[0]
                .as_str()
                .and_then(SpanKind::from_label)
                .ok_or("bad span kind")?;
            r.spans.push(Span {
                kind,
                node: p[1].as_u64().ok_or("bad span")? as u32,
                proc: p[2].as_u64().ok_or("bad span")? as u32,
                begin: p[3].as_u64().ok_or("bad span")? as Nanos,
                end: p[4].as_u64().ok_or("bad span")? as Nanos,
                page: p[5].as_i64().ok_or("bad span")?,
            });
        }
        r.spans_dropped = u64_field(v, "spans_dropped")?;
        r.spans_unclosed = u64_field(v, "spans_unclosed")?;
        r.spans_mismatched = u64_field(v, "spans_mismatched")?;
        Ok(r)
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cashmere_sim::{ProcClock, TimeCategory};

    fn sample_report() -> ObsReport {
        let mut clock = ProcClock::new();
        let mut p = ProcObs::new(0, 0, 3);
        clock.charge(TimeCategory::User, 50);
        p.begin(SpanKind::Barrier, 1, &clock);
        clock.charge(TimeCategory::CommWait, 20);
        p.end(SpanKind::Barrier, &clock);
        p.heat(1);
        p.metrics.diffs_sent = 2;
        p.metrics.interrupts = 3;
        p.metrics.breaks = 5;
        p.metrics.mc_lock_acquires = 7;
        p.metrics.fetch_rtt.record(1234);
        p.finish(&clock);
        let mut r = ObsReport::new();
        r.merge_proc(&p);
        r.links = vec![
            LinkCounts {
                messages: 5,
                bytes: 4096,
            },
            LinkCounts::default(),
        ];
        r
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample_report();
        let doc = r.to_json();
        let v = json::parse(&doc).expect("self-produced JSON parses");
        let back = ObsReport::from_json(&v).expect("self-produced JSON deserializes");
        assert_eq!(back, r);
        for (name, _) in r.metrics.counters() {
            assert!(doc.contains(&format!("\"{name}\":")), "{name} serialized");
        }
    }

    /// A document written before the Table 3 mirrors left the registry (its
    /// `counters` object in that build's key order) still parses: the seven
    /// dropped keys are ignored, the four kept ones land.
    #[test]
    fn parent_format_document_still_parses() {
        let r = sample_report();
        let doc = r.to_json().replace(
            "\"counters\":{\"diffs_sent\":2,\"interrupts\":3,\"breaks\":5,\"mc_lock_acquires\":7}",
            "\"counters\":{\"read_faults\":9,\"write_faults\":8,\"twin_creations\":6,\
             \"diffs_sent\":2,\"diffs_applied\":4,\"write_notices\":11,\
             \"directory_updates\":12,\"interrupts\":3,\"fetches\":13,\"breaks\":5,\
             \"mc_lock_acquires\":7}",
        );
        assert!(
            doc.contains("\"fetches\":13"),
            "the old keys are in the document"
        );
        let v = json::parse(&doc).expect("parent-format JSON parses");
        assert_eq!(ObsReport::from_json(&v).expect("deserializes"), r);
    }

    #[test]
    fn merge_accumulates_across_procs() {
        let clock = ProcClock::new();
        let mut a = ProcObs::new(0, 0, 2);
        a.heat(0);
        a.finish(&clock);
        let mut b = ProcObs::new(1, 3, 4);
        b.heat(0);
        b.heat(3);
        b.metrics.interrupts = 2;
        b.finish(&clock);
        let mut r = ObsReport::new();
        r.merge_proc(&a);
        r.merge_proc(&b);
        assert_eq!(r.procs, 2);
        assert_eq!(r.page_heat, vec![2, 0, 0, 1]);
        assert_eq!(r.metrics.interrupts, 2);
        assert_eq!(r.hot_pages(10), vec![(0, 2), (3, 1)]);
        assert_eq!(r.hot_pages(1), vec![(0, 2)]);
    }
}
