//! The typed metrics registry: virtual-time latency histograms, the four
//! obs-only event counts, and per-link traffic.
//!
//! Everything here is plain data owned by one processor (no atomics, no
//! locking) except [`LinkMetrics`], which the Memory Channel adapter shares
//! across processors and therefore counts with relaxed atomics. Recording
//! into a registry never allocates: histograms have fixed log2 bins and
//! counters are plain integers, so hooks on the engine hot path stay
//! allocation-free.

use std::sync::atomic::{AtomicU64, Ordering};

use cashmere_sim::Nanos;

/// Number of log2-spaced bins in a [`VtHistogram`]. Bin `i` holds samples in
/// `[2^(i-1), 2^i)` nanoseconds (bin 0 holds zero-duration samples), so 40
/// bins cover everything up to ~9 virtual minutes.
pub const HIST_BINS: usize = 40;

/// A fixed-size log2 histogram of virtual-time durations.
///
/// Recording is allocation-free and O(1); the exporters turn the bins into
/// human-readable latency tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VtHistogram {
    /// Sample counts per log2 bin.
    pub bins: [u64; HIST_BINS],
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples, for exact means.
    pub sum: Nanos,
    /// Largest sample seen.
    pub max: Nanos,
}

impl Default for VtHistogram {
    fn default() -> Self {
        Self {
            bins: [0; HIST_BINS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl VtHistogram {
    /// Records one duration sample.
    #[inline]
    pub fn record(&mut self, ns: Nanos) {
        self.bins[Self::bin_of(ns)] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    /// The bin index a sample of `ns` lands in.
    #[must_use]
    pub fn bin_of(ns: Nanos) -> usize {
        let bits = Nanos::BITS as usize - ns.leading_zeros() as usize;
        bits.min(HIST_BINS - 1)
    }

    /// Inclusive lower edge of bin `i` in nanoseconds.
    #[must_use]
    pub fn bin_floor(i: usize) -> Nanos {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Mean sample in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` (in `0.0..=1.0`) from the log2 bins: the
    /// inclusive lower edge of the bin holding the sample of that rank,
    /// clamped to the exact [`max`](Self::max). Returns 0 when empty. With
    /// log2 bins the estimate is within 2× of the true value, which is the
    /// resolution the latency tables report anyway.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bin_floor(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Per-processor round-trip latency histograms, plus the four counts only
/// the observability layer keeps.
///
/// The Table 3 protocol counters (faults, twins, notices, directory
/// updates, page transfers, incoming diffs) are *not* mirrored here: each
/// processor counts those once, in its `cashmere_core` tally, and they are
/// reported as `Report::counters`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    /// Diffs flushed to a master copy.
    pub diffs_sent: u64,
    /// Remote requests that interrupt another host (page fetches from a
    /// remote home plus exclusive breaks).
    pub interrupts: u64,
    /// Exclusive-mode breaks initiated.
    pub breaks: u64,
    /// Memory Channel lock acquisitions (home-node relocation).
    pub mc_lock_acquires: u64,
    /// Fetch round-trip virtual latency.
    pub fetch_rtt: VtHistogram,
    /// Exclusive-break round-trip virtual latency.
    pub break_rtt: VtHistogram,
    /// End-to-end page-fault service latency.
    pub fault_ns: VtHistogram,
    /// Per-request sojourn (arrival-to-completion) latency, recorded by the
    /// trace-driven service applications (DESIGN.md §13) via
    /// `Proc::record_sojourn`. Empty for the scientific suite.
    pub sojourn_ns: VtHistogram,
}

impl MetricsRegistry {
    /// Folds another registry into this one.
    pub fn merge(&mut self, other: &Self) {
        self.diffs_sent += other.diffs_sent;
        self.interrupts += other.interrupts;
        self.breaks += other.breaks;
        self.mc_lock_acquires += other.mc_lock_acquires;
        self.fetch_rtt.merge(&other.fetch_rtt);
        self.break_rtt.merge(&other.break_rtt);
        self.fault_ns.merge(&other.fault_ns);
        self.sojourn_ns.merge(&other.sojourn_ns);
    }

    /// Labelled snapshot of every scalar counter, for reports and JSON.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("diffs_sent", self.diffs_sent),
            ("interrupts", self.interrupts),
            ("breaks", self.breaks),
            ("mc_lock_acquires", self.mc_lock_acquires),
        ]
    }

    /// Sets a counter by its [`Self::counters`] label; ignores unknown names
    /// (reports written by other builds — including the seven Table 3
    /// mirrors older builds wrote here — still parse).
    pub fn set_counter(&mut self, name: &str, v: u64) {
        match name {
            "diffs_sent" => self.diffs_sent = v,
            "interrupts" => self.interrupts = v,
            "breaks" => self.breaks = v,
            "mc_lock_acquires" => self.mc_lock_acquires = v,
            _ => {}
        }
    }
}

/// Shared per-link traffic counters for the Memory Channel adapter.
///
/// One slot per link; `record` is two relaxed atomic adds, cheap enough to
/// sit on the `reserve_link` path (which every remote write, page transfer,
/// and doubled store already goes through).
#[derive(Debug, Default)]
pub struct LinkMetrics {
    slots: Vec<(AtomicU64, AtomicU64)>,
}

/// Snapshot of one link's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounts {
    /// Transmissions reserved on the link.
    pub messages: u64,
    /// Bytes carried by those transmissions.
    pub bytes: u64,
}

impl LinkMetrics {
    /// A registry for `links` Memory Channel links.
    #[must_use]
    pub fn new(links: usize) -> Self {
        Self {
            slots: (0..links)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Counts one transmission of `bytes` on `link`.
    #[inline]
    pub fn record(&self, link: usize, bytes: u64) {
        if let Some((m, b)) = self.slots.get(link) {
            // relaxed-ok: statistics counters on the transmit hot path;
            // single-location RMW coherence keeps the totals exact and no
            // other data is published through them.
            m.fetch_add(1, Ordering::Relaxed);
            b.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Per-link totals.
    #[must_use]
    pub fn snapshot(&self) -> Vec<LinkCounts> {
        self.slots
            .iter()
            .map(|(m, b)| LinkCounts {
                // relaxed-ok: statistics counters read for reporting after
                // the run's threads have joined (see record above).
                messages: m.load(Ordering::Relaxed),
                bytes: b.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_are_log2() {
        assert_eq!(VtHistogram::bin_of(0), 0);
        assert_eq!(VtHistogram::bin_of(1), 1);
        assert_eq!(VtHistogram::bin_of(2), 2);
        assert_eq!(VtHistogram::bin_of(3), 2);
        assert_eq!(VtHistogram::bin_of(4), 3);
        assert_eq!(VtHistogram::bin_of(u64::MAX), HIST_BINS - 1);
        for i in 1..HIST_BINS - 1 {
            let lo = VtHistogram::bin_floor(i);
            assert_eq!(VtHistogram::bin_of(lo), i, "floor of bin {i} is in it");
            assert_eq!(VtHistogram::bin_of(2 * lo - 1), i, "top of bin {i}");
        }
    }

    #[test]
    fn histogram_record_and_merge() {
        let mut a = VtHistogram::default();
        a.record(10);
        a.record(1000);
        let mut b = VtHistogram::default();
        b.record(0);
        b.merge(&a);
        assert_eq!(b.count, 3);
        assert_eq!(b.sum, 1010);
        assert_eq!(b.max, 1000);
        assert!((b.mean() - 1010.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_track_log2_bins() {
        let empty = VtHistogram::default();
        assert_eq!(empty.quantile(0.5), 0);
        let mut h = VtHistogram::default();
        for _ in 0..90 {
            h.record(100); // bin floor 64
        }
        for _ in 0..10 {
            h.record(10_000); // bin floor 8192
        }
        assert_eq!(h.quantile(0.50), 64);
        assert_eq!(h.quantile(0.90), 64);
        assert_eq!(h.quantile(0.95), 8192);
        assert_eq!(h.quantile(1.0), 8192);
        // A lone sample reports its bin's lower edge.
        let mut one = VtHistogram::default();
        one.record(5);
        assert_eq!(one.quantile(0.99), 4);
    }

    #[test]
    fn registry_counter_labels_round_trip() {
        let m = MetricsRegistry {
            diffs_sent: 7,
            interrupts: 3,
            breaks: 5,
            mc_lock_acquires: 2,
            ..MetricsRegistry::default()
        };
        let mut back = MetricsRegistry::default();
        for (name, v) in m.counters() {
            back.set_counter(name, v);
        }
        assert_eq!(back, m);
    }

    #[test]
    fn link_metrics_count_messages_and_bytes() {
        let lm = LinkMetrics::new(2);
        lm.record(0, 4096);
        lm.record(0, 8);
        lm.record(1, 12);
        lm.record(9, 999); // out of range: ignored, no panic
        let snap = lm.snapshot();
        assert_eq!(
            snap[0],
            LinkCounts {
                messages: 2,
                bytes: 4104
            }
        );
        assert_eq!(
            snap[1],
            LinkCounts {
                messages: 1,
                bytes: 12
            }
        );
    }
}
