//! The execution-time breakdown of Figure 6, accumulated per processor in
//! [`TimeBreakdown`] and merged at the end of a run, plus [`Counter`], the
//! shared atomic tally for the few counts that have more than one writer
//! (directory traffic). The Table 3 counters are not here: each processor
//! carries its own plain tally (`cashmere_core::report::Tally`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::Nanos;

/// The execution-time categories of the paper's Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Application computation (includes cache misses and trap entry, per
    /// the paper's definition of `User`).
    User,
    /// Time in protocol code (fault handlers, diffs, directory updates).
    Protocol,
    /// Overhead of compiler-inserted message polls in loops.
    Polling,
    /// Communication and wait time (data transfer, lock/barrier waiting).
    CommWait,
    /// Overhead of in-line write doubling (the 1L protocol only).
    WriteDoubling,
}

impl TimeCategory {
    /// All categories, in the paper's Figure 6 legend order.
    pub const ALL: [TimeCategory; 5] = [
        TimeCategory::User,
        TimeCategory::Protocol,
        TimeCategory::Polling,
        TimeCategory::CommWait,
        TimeCategory::WriteDoubling,
    ];

    fn index(self) -> usize {
        match self {
            TimeCategory::User => 0,
            TimeCategory::Protocol => 1,
            TimeCategory::Polling => 2,
            TimeCategory::CommWait => 3,
            TimeCategory::WriteDoubling => 4,
        }
    }

    /// Display label matching the figure legend.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::User => "User",
            TimeCategory::Protocol => "Protocol",
            TimeCategory::Polling => "Polling",
            TimeCategory::CommWait => "Comm & Wait",
            TimeCategory::WriteDoubling => "Write Doubling",
        }
    }
}

/// Per-processor accumulated time by category.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    by_cat: [Nanos; 5],
}

impl TimeBreakdown {
    /// Adds `ns` to category `cat`.
    #[inline]
    pub fn add(&mut self, cat: TimeCategory, ns: Nanos) {
        self.by_cat[cat.index()] += ns;
    }

    /// Accumulated time in `cat`.
    #[inline]
    pub fn get(&self, cat: TimeCategory) -> Nanos {
        self.by_cat[cat.index()]
    }

    /// Sum across all categories.
    pub fn total(&self) -> Nanos {
        self.by_cat.iter().sum()
    }

    /// Element-wise merge of another breakdown into this one.
    pub fn merge(&mut self, other: &TimeBreakdown) {
        for (a, b) in self.by_cat.iter_mut().zip(other.by_cat.iter()) {
            *a += b;
        }
    }
}

/// A monotone, thread-safe event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed-ok: statistics counter; single-location RMW coherence
        // keeps the total exact, and no other data is published through it.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // relaxed-ok: statistics counter read for reporting after the
        // run's threads have joined (see add above).
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotone_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                cashmere_model::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn breakdown_merges_categorywise() {
        let mut a = TimeBreakdown::default();
        a.add(TimeCategory::User, 10);
        a.add(TimeCategory::CommWait, 5);
        let mut b = TimeBreakdown::default();
        b.add(TimeCategory::User, 1);
        b.add(TimeCategory::Protocol, 2);
        a.merge(&b);
        assert_eq!(a.get(TimeCategory::User), 11);
        assert_eq!(a.get(TimeCategory::Protocol), 2);
        assert_eq!(a.get(TimeCategory::CommWait), 5);
        assert_eq!(a.total(), 18);
    }

    #[test]
    fn category_labels_match_figure6_legend() {
        assert_eq!(TimeCategory::CommWait.label(), "Comm & Wait");
        assert_eq!(TimeCategory::ALL.len(), 5);
    }
}
