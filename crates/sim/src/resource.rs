//! Serially shared resources in virtual time.
//!
//! A [`Resource`] models something only one transfer can use at a time: a
//! node's Memory Channel PCI adapter (the paper's AlphaServer 2100 has a
//! single 32-bit PCI link that every processor on the node shares) or the
//! node's memory bus.
//!
//! Because simulated processors run as free-running OS threads, requests
//! arrive in *real-time* order but carry *virtual-time* stamps — a request
//! stamped "later" can be issued (in real time) before one stamped
//! "earlier". A single `free_at` watermark would make the early request
//! queue behind a reservation that lies entirely in its future, dragging
//! clocks forward spuriously. The resource therefore keeps a bounded list
//! of busy *intervals* and places each request in the earliest gap at or
//! after its own timestamp: requests only contend when their service
//! intervals actually overlap in virtual time.
//!
//! This is what reproduces the paper's contention findings — LU's
//! exclusive-mode break requests piling onto one node under the one-level
//! protocols (§3.3.3), and SOR/Gauss's negative clustering from
//! capacity-miss traffic on the shared bus — without coupling unrelated
//! processors' clocks.

use parking_lot::Mutex;

use crate::time::Nanos;

/// Maximum retained busy intervals. When exceeded, the earliest interval is
/// merged away (only far-past requests would have fit before it, and those
/// then simply start at their own timestamp).
const MAX_INTERVALS: usize = 128;

/// A virtual-time resource shared by concurrently executing simulated
/// processors. Thread-safe.
#[derive(Debug, Default)]
pub struct Resource {
    /// Disjoint, sorted busy intervals `(start, end)`.
    busy: Mutex<Vec<(Nanos, Nanos)>>,
}

impl Resource {
    /// Creates a resource that is free at all times.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `busy` ns, starting no earlier than `now`.
    ///
    /// Returns the *completion* time of the reservation: the end of the
    /// earliest `busy`-sized gap at or after `now`. The caller should
    /// advance its clock to the returned value (attributing any queuing
    /// delay to communication/wait time).
    pub fn acquire(&self, now: Nanos, busy: Nanos) -> Nanos {
        if busy == 0 {
            return now;
        }
        let mut iv = self.busy.lock();
        if iv.capacity() == 0 {
            // Size the list for its bound on first use: later acquires
            // never allocate, and a resource nobody touches costs nothing.
            iv.reserve_exact(MAX_INTERVALS + 1);
        }
        // Find the earliest gap of length `busy` starting at or after `now`.
        let mut start = now;
        let mut insert_at = iv.len();
        for (i, &(s, e)) in iv.iter().enumerate() {
            if e <= start {
                continue; // interval entirely before our candidate start
            }
            if s >= start + busy {
                insert_at = i; // gap before this interval fits
                break;
            }
            // Overlap: push the candidate past this interval.
            start = start.max(e);
            insert_at = i + 1;
        }
        let end = start + busy;
        iv.insert(insert_at, (start, end));
        // Coalesce with abutting neighbors to keep the list small.
        coalesce_around(&mut iv, insert_at);
        if iv.len() > MAX_INTERVALS {
            // Merge the two earliest intervals (bridging the gap between
            // them); early arrivals lose a potential gap, never a grant.
            let (s0, _e0) = iv[0];
            let (_s1, e1) = iv[1];
            iv.splice(0..2, [(s0, e1)]);
        }
        end
    }

    /// The earliest time at which the resource is free forever after
    /// (i.e. the end of the last busy interval).
    pub fn free_at(&self) -> Nanos {
        self.busy.lock().last().map(|&(_, e)| e).unwrap_or(0)
    }
}

/// Merges interval `i` with abutting or overlapping neighbors.
fn coalesce_around(iv: &mut Vec<(Nanos, Nanos)>, i: usize) {
    // Merge with the previous interval if abutting.
    let mut i = i;
    if i > 0 && iv[i - 1].1 >= iv[i].0 {
        iv[i - 1].1 = iv[i - 1].1.max(iv[i].1);
        iv.remove(i);
        i -= 1;
    }
    // Merge with the next interval if abutting.
    while i + 1 < iv.len() && iv[i].1 >= iv[i + 1].0 {
        iv[i].1 = iv[i].1.max(iv[i + 1].1);
        iv.remove(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_runs_immediately() {
        let r = Resource::new();
        assert_eq!(r.acquire(100, 50), 150);
        assert_eq!(r.free_at(), 150);
    }

    #[test]
    fn back_to_back_acquires_serialize() {
        let r = Resource::new();
        assert_eq!(r.acquire(0, 100), 100);
        // Second request at t=10 must queue behind the first.
        assert_eq!(r.acquire(10, 100), 200);
        // A request arriving after the backlog drains starts immediately.
        assert_eq!(r.acquire(500, 10), 510);
    }

    #[test]
    fn early_request_uses_gap_before_future_reservation() {
        // The fix for virtual-time contamination: a reservation far in the
        // future must not delay a request whose service interval lies
        // entirely before it.
        let r = Resource::new();
        assert_eq!(r.acquire(1_000_000, 100), 1_000_100, "future reservation");
        assert_eq!(r.acquire(0, 100), 100, "early request slots into the gap");
        assert_eq!(
            r.acquire(50, 100),
            200,
            "second early request queues normally"
        );
    }

    #[test]
    fn gap_between_reservations_is_used_when_large_enough() {
        let r = Resource::new();
        assert_eq!(r.acquire(0, 100), 100); // [0,100)
        assert_eq!(r.acquire(500, 100), 600); // [500,600)
                                              // Fits in the [100,500) gap.
        assert_eq!(r.acquire(100, 300), 400);
        // Does not fit in any remaining gap before 600.
        assert_eq!(r.acquire(90, 150), 750);
    }

    #[test]
    fn zero_busy_is_free() {
        let r = Resource::new();
        assert_eq!(r.acquire(42, 0), 42);
    }

    #[test]
    fn interval_list_stays_bounded() {
        let r = Resource::new();
        for i in 0..10_000u64 {
            // Disjoint reservations with gaps; list must stay bounded.
            r.acquire(i * 10, 3);
        }
        assert!(r.busy.lock().len() <= MAX_INTERVALS);
    }

    #[test]
    fn concurrent_acquires_never_overlap() {
        use std::sync::Arc;
        let r = Arc::new(Resource::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(cashmere_model::thread::spawn(move || {
                let mut ends = Vec::new();
                for _ in 0..1000 {
                    ends.push(r.acquire(0, 7));
                }
                ends
            }));
        }
        let mut all: Vec<Nanos> = handles.into_iter().flat_map(|h| h.join()).collect();
        all.sort_unstable();
        // 8000 grants of 7 ns each, all requested at t=0, must produce
        // distinct, exactly-spaced completion times.
        for (i, end) in all.iter().enumerate() {
            assert_eq!(*end, 7 * (i as Nanos + 1));
        }
    }
}
