//! Dedicated tests for the simulator's occupancy accounting
//! ([`Resource`]'s busy-interval bookkeeping — what the fault layer's delay
//! and outage injection perturbs) and for the Figure 6 time-breakdown bins
//! (the stacked-bar "histogram" of execution time: [`TimeCategory`] are its
//! bin edges) plus the shared [`Counter`].

use cashmere_sim::{Counter, Nanos, Resource, TimeBreakdown, TimeCategory};

// --- Resource occupancy accounting ------------------------------------

#[test]
fn exact_fit_gap_is_granted_on_the_boundary() {
    let r = Resource::new();
    assert_eq!(r.acquire(0, 100), 100); // [0,100)
    assert_eq!(r.acquire(200, 100), 300); // [200,300)
                                          // A 100 ns request at t=100 fits the [100,200) gap exactly.
    assert_eq!(r.acquire(100, 100), 200);
    // One nanosecond too wide and it must queue past the backlog instead.
    assert_eq!(r.acquire(100, 101), 401);
}

#[test]
fn abutting_grants_leave_no_phantom_gap() {
    let r = Resource::new();
    assert_eq!(r.acquire(0, 50), 50);
    assert_eq!(r.acquire(50, 50), 100); // abuts the first grant
    assert_eq!(r.free_at(), 100);
    // The coalesced occupancy [0,100) admits no grant inside it.
    assert_eq!(r.acquire(0, 10), 110);
}

#[test]
fn free_at_tracks_the_last_interval_end_only() {
    let r = Resource::new();
    assert_eq!(r.free_at(), 0, "a fresh resource is free forever");
    r.acquire(1_000, 100);
    assert_eq!(r.free_at(), 1_100);
    // A grant slotted into an earlier gap must not move the horizon.
    r.acquire(0, 100);
    assert_eq!(r.free_at(), 1_100);
    r.acquire(2_000, 1);
    assert_eq!(r.free_at(), 2_001);
}

#[test]
fn grants_never_complete_before_request_plus_service() {
    // Occupancy conservation under the bounded-interval overflow merge:
    // whatever gaps the merge bridges away, a grant can lose an early slot
    // but never receive one before its own timestamp + service time.
    let r = Resource::new();
    let mut ends = Vec::new();
    for i in 0..5_000u64 {
        let now = (i % 997) * 1_000;
        let end = r.acquire(now, 10);
        assert!(end >= now + 10, "grant at {end} precedes request at {now}");
        ends.push(end);
    }
    // Every grant occupies a distinct interval: completion times of equal
    // service never collide.
    ends.sort_unstable();
    ends.dedup();
    assert_eq!(ends.len(), 5_000, "two grants shared a completion time");
}

#[test]
fn queuing_delay_is_attributed_not_lost() {
    // Three processors hit the adapter at the same instant: total occupancy
    // must equal the sum of service times, with each later grant delayed by
    // exactly the backlog in front of it.
    let r = Resource::new();
    let ends: Vec<Nanos> = (0..3).map(|_| r.acquire(0, 40)).collect();
    assert_eq!(ends, vec![40, 80, 120]);
    assert_eq!(r.free_at(), 120);
}

// --- Time-breakdown bins (Figure 6) and Table 3 counters ---------------

#[test]
fn breakdown_bins_are_disjoint_and_exhaustive() {
    // Each category accumulates into its own bin; the bins partition the
    // total exactly (the Figure 6 stacked bars must sum to 100%).
    let mut b = TimeBreakdown::default();
    for (i, cat) in TimeCategory::ALL.iter().enumerate() {
        b.add(*cat, (i as Nanos + 1) * 10);
    }
    for (i, cat) in TimeCategory::ALL.iter().enumerate() {
        assert_eq!(b.get(*cat), (i as Nanos + 1) * 10, "{}", cat.label());
    }
    assert_eq!(b.total(), 10 + 20 + 30 + 40 + 50);
}

#[test]
fn breakdown_bin_edges_do_not_bleed() {
    // Adding to one bin must leave every other bin untouched — including
    // the first and last (the classic off-by-one edges).
    for &cat in &TimeCategory::ALL {
        let mut b = TimeBreakdown::default();
        b.add(cat, 7);
        for &other in &TimeCategory::ALL {
            let want = if other == cat { 7 } else { 0 };
            assert_eq!(b.get(other), want, "{} -> {}", cat.label(), other.label());
        }
        assert_eq!(b.total(), 7);
    }
}

#[test]
fn breakdown_merge_is_elementwise_addition() {
    let mut a = TimeBreakdown::default();
    a.add(TimeCategory::User, 1);
    a.add(TimeCategory::WriteDoubling, 2);
    let mut b = TimeBreakdown::default();
    b.add(TimeCategory::WriteDoubling, 3);
    b.add(TimeCategory::Polling, 4);
    a.merge(&b);
    assert_eq!(a.get(TimeCategory::User), 1);
    assert_eq!(a.get(TimeCategory::WriteDoubling), 5);
    assert_eq!(a.get(TimeCategory::Polling), 4);
    assert_eq!(a.total(), 10);
}

#[test]
fn counter_add_zero_is_a_no_op_and_adds_accumulate() {
    let c = Counter::new();
    c.add(0);
    assert_eq!(c.get(), 0);
    c.inc();
    c.add(41);
    assert_eq!(c.get(), 42);
}
