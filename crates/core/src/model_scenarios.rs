//! Shared concurrency scenarios for the interleaving explorer (DESIGN.md
//! §11).
//!
//! Each function here is a complete concurrent scenario — threads, shared
//! structure, and assertions — parameterized by size and by whether to run
//! the real implementation or a known-wrong mutant. The same scenario runs
//! two ways:
//!
//! * as a plain OS-thread stress test (large parameters, real scheduler),
//!   from this crate's unit tests, and
//! * under the bounded interleaving explorer (small parameters, exhaustive
//!   schedules), from the `model_*` integration tests.
//!
//! Threads are spawned through [`cashmere_model::thread`], which routes
//! through the model scheduler when an exploration is active and falls back
//! to `std::thread` otherwise, so both modes exercise byte-for-byte the
//! same code and assertions.
//!
//! Hidden from docs: this is test plumbing that lives in the library only
//! so unit tests and integration tests can share it.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use cashmere_memchan::TransportConfig;
use cashmere_model::{thread, ModelAtomicBool, ModelAtomicU64};
use cashmere_sim::{HorizonClock, Nanos, ProcId, Topology, WakeSlot};
use cashmere_transport::build_transport;

use crate::config::{DirectoryMode, ProtocolKind};
use crate::directory::{DirWord, Directory, PermBits};
use crate::engine::Engine;
use crate::mc_lock::McLock;
use crate::run::RunSpec;
use crate::sync::CarrierFlag;
use crate::trace::{ProtocolEvent, TraceRecorder};
use crate::write_notice::{NleList, NoticeBoard, ProcNoticeList};

/// Striped write-notice lists: `posters` threads insert disjoint page
/// ranges (`per` pages each) while a drainer runs `drains` concurrent
/// drains. Every page must be delivered exactly once and per-poster FIFO
/// order must survive the ticket merge.
pub fn striped_notice_exactly_once(posters: u32, per: u32, drains: usize) {
    let l = Arc::new(ProcNoticeList::new(
        (posters * per) as usize + 1,
        posters as usize,
    ));
    let hs: Vec<_> = (0..posters)
        .map(|from| {
            let l = Arc::clone(&l);
            thread::spawn(move || {
                for i in 0..per {
                    l.insert(from * per + i, from as usize);
                    if i % 64 == 0 {
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let drainer = {
        let l = Arc::clone(&l);
        thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..drains {
                got.extend(l.drain());
                thread::yield_now();
            }
            got
        })
    };
    for h in hs {
        h.join();
    }
    let mut all = drainer.join();
    all.extend(l.drain());
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for p in &all {
        *counts.entry(*p).or_default() += 1;
    }
    assert_eq!(
        counts.len(),
        (posters * per) as usize,
        "every page delivered"
    );
    assert!(
        counts.values().all(|&c| c == 1),
        "disjoint pages queued in one epoch each → delivered exactly once"
    );
    for from in 0..posters {
        let mine: Vec<u32> = all.iter().copied().filter(|p| p / per == from).collect();
        assert!(
            mine.windows(2).all(|w| w[0] < w[1]),
            "poster {from}'s pages left the merge in post order"
        );
    }
}

/// Two posters race to insert the *same* page while a drainer runs
/// concurrent drains. The exactly-once queuing invariant says a single
/// drain can never deliver a duplicate (the bitmap admits at most one
/// queued entry per page per epoch), and every fresh claim is delivered
/// exactly once. With `mutant`, the insert claims the bitmap bit outside
/// the stripe lock, so a drain between claim and push lets the page queue
/// twice — some schedule then delivers a duplicate in one drain.
pub fn contended_insert_exactly_once(mutant: bool) {
    let l = Arc::new(ProcNoticeList::new(64, 2));
    let posters: Vec<_> = (0..2usize)
        .map(|from| {
            let l = Arc::clone(&l);
            thread::spawn(move || {
                if mutant {
                    l.insert_mutant_claim_outside_stripe_lock(3, from)
                } else {
                    l.insert(3, from)
                }
            })
        })
        .collect();
    let drainer = {
        let l = Arc::clone(&l);
        thread::spawn(move || {
            let mut epochs = Vec::new();
            for _ in 0..2 {
                epochs.push(l.drain());
                thread::yield_now();
            }
            epochs
        })
    };
    let fresh: u64 = posters.into_iter().map(|h| u64::from(h.join())).sum();
    let mut epochs = drainer.join();
    epochs.push(l.drain());
    for d in &epochs {
        let mut s = d.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(
            s.len(),
            d.len(),
            "a single drain delivered a duplicate page: {d:?}"
        );
    }
    let delivered = epochs.iter().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(
        delivered, fresh,
        "every fresh claim delivered exactly once (fresh={fresh})"
    );
}

/// Posters racing one continuously draining thread, the shape both
/// occupancy-indexed lists of DESIGN.md §10 are checked in. Poster `p` of
/// `posters` calls `post(p, k)` for `k` in `0..per` and publishes, after
/// each, how many of its posts have returned; one thread calls `drain`
/// `drains` times, and once more after the posters are done. `drain`
/// returns `(poster, k)` pairs. Each poster's items must come out exactly
/// once and in post order; an item whose post had returned when a drain
/// started must be out by the end of that drain (never stranded behind a
/// cleared summary); and whenever `claims_empty` holds before a drain, no
/// returned post may be outstanding.
fn posters_racing_one_drainer(
    posters: usize,
    per: u32,
    drains: usize,
    post: impl Fn(usize, u32) + Send + Sync + 'static,
    claims_empty: impl Fn() -> bool + Send + Sync + 'static,
    drain: impl Fn() -> Vec<(usize, u32)> + Send + Sync + 'static,
) {
    let returned: Arc<Vec<ModelAtomicU64>> =
        Arc::new((0..posters).map(|_| ModelAtomicU64::new(0)).collect());
    let post = Arc::new(post);
    let hs: Vec<_> = (0..posters)
        .map(|p| {
            let post = Arc::clone(&post);
            let returned = Arc::clone(&returned);
            thread::spawn(move || {
                for k in 0..per {
                    post(p, k);
                    returned[p].store(u64::from(k) + 1, Ordering::Release);
                    if k % 64 == 0 {
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();
    // One drain plus its checks; `got[p]` counts poster `p`'s items out so
    // far, which post order makes the next `k` expected.
    let step = Arc::new(move |got: &mut [u64]| {
        let before: Vec<u64> = returned.iter().map(|r| r.load(Ordering::Acquire)).collect();
        let caught_up = |got: &[u64]| got.iter().zip(&before).all(|(g, r)| g >= r);
        if claims_empty() {
            assert!(
                caught_up(got),
                "is_empty held with a returned post undrained: got {got:?}, returned {before:?}"
            );
        }
        for (p, k) in drain() {
            assert_eq!(
                u64::from(k),
                got[p],
                "poster {p}'s items must arrive exactly once, in post order"
            );
            got[p] += 1;
        }
        assert!(
            caught_up(got),
            "an item posted before the drain began was stranded: got {got:?}, returned {before:?}"
        );
    });
    let drainer = {
        let step = Arc::clone(&step);
        thread::spawn(move || {
            let mut got = vec![0u64; posters];
            for _ in 0..drains {
                step(&mut got);
                thread::yield_now();
            }
            got
        })
    };
    for h in hs {
        h.join();
    }
    let mut got = drainer.join();
    step(&mut got);
    assert!(
        got.iter().all(|&g| g == u64::from(per)),
        "every item delivered exactly once: {got:?}"
    );
}

/// The notice board's per-destination queue and its count (DESIGN.md §10):
/// `posters` processors spread over `senders` nodes (poster `p` on node
/// `p % senders + 1`, so with fewer nodes than posters siblings post as
/// one sender) post `per` notices each into destination 0 while one thread
/// drains it — see [`posters_racing_one_drainer`] for the delivery
/// assertions, here with `is_empty` as the emptiness claim and ascending
/// sender order checked on every drain. With `mutant`, the drain counts out
/// *before* popping, and the explorer must find the schedule where a post
/// counts in before that and pushes after the pops.
pub fn notice_queue_exactly_once(
    posters: u32,
    senders: u32,
    per: u32,
    drains: usize,
    mutant: bool,
) {
    let b = Arc::new(NoticeBoard::new(
        senders as usize + 1,
        DirectoryMode::LockFree,
        0,
    ));
    let (poster, prober, drainer) = (Arc::clone(&b), Arc::clone(&b), Arc::clone(&b));
    posters_racing_one_drainer(
        posters as usize,
        per,
        drains,
        move |p, k| {
            poster.post(0, p % senders as usize + 1, p as u32 * per + k, 0);
        },
        move || prober.is_empty(0),
        move || {
            let d = if mutant {
                drainer.drain_mutant_count_out_before_pop(0)
            } else {
                drainer.drain(0)
            };
            assert!(
                d.windows(2).all(|w| w[0].0 <= w[1].0),
                "drain left ascending sender order: {d:?}"
            );
            d.into_iter()
                .map(|(from, page)| {
                    let p = (page / per) as usize;
                    assert_eq!(
                        from,
                        p % senders as usize + 1,
                        "notice under the wrong sender"
                    );
                    (p, page % per)
                })
                .collect()
        },
    );
    assert!(
        b.is_empty(0),
        "nothing pending once everything is delivered"
    );
}

/// The NLE list's pending flag (DESIGN.md §10): `posters` threads push
/// `per` distinct pages each while the owner drains — see
/// [`posters_racing_one_drainer`]. With `mutant`, the push raises the flag
/// *before* it pushes, and the explorer must find the schedule where a
/// drain in between lowers the flag over a page still to come.
pub fn nle_pending_flag(posters: u32, per: u32, drains: usize, mutant: bool) {
    let n = Arc::new(NleList::new(posters as usize));
    let pusher = Arc::clone(&n);
    posters_racing_one_drainer(
        posters as usize,
        per,
        drains,
        move |p, k| {
            let page = p as u32 * per + k;
            if mutant {
                pusher.push_mutant_flag_before_push(page);
            } else {
                pusher.push(page, p);
            }
        },
        || false,
        move || {
            n.drain()
                .into_iter()
                .map(|page| ((page / per) as usize, page % per))
                .collect()
        },
    );
}

/// The lock-free directory read fast path: a single writer on node 0
/// publishes `words` distinct directory words into the one host array while
/// a reader on node 1 polls it up to `max_reads` times. Every observed
/// non-default word must be one the writer actually published,
/// observations must move forward through the publish order, and — if the
/// reader saw the writer finish — the last observation must be the final
/// published word. With `mutant`, the write is torn into two stores and the
/// explorer must find a schedule observing the partial word.
pub fn directory_single_writer_reads(words: u16, max_reads: usize, mutant: bool) {
    let pnodes = 2usize;
    let mc = build_transport(TransportConfig::new(
        (0..pnodes).map(|e| e % 2).collect(),
        2,
    ));
    let d = Arc::new(Directory::new(mc, pnodes, 4, DirectoryMode::LockFree));
    // `excl_proc` starts at 1 so a torn perm-only word (excl_proc = 0,
    // exclusive = false) can never collide with a published word.
    let published: Vec<DirWord> = (0..words)
        .map(|i| DirWord {
            perm: if i % 2 == 0 {
                PermBits::Read
            } else {
                PermBits::Write
            },
            exclusive: i % 3 == 0,
            excl_proc: i + 1,
        })
        .collect();
    let done = Arc::new(ModelAtomicBool::new(false));
    let writer = {
        let d = Arc::clone(&d);
        let published = published.clone();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for (t, w) in published.iter().enumerate() {
                if mutant {
                    d.write_my_word_mutant_torn_store(1, 0, *w, t as Nanos);
                } else {
                    d.write_my_word(1, 0, *w, t as Nanos);
                }
                thread::yield_now();
            }
            done.store(true, Ordering::Release);
        })
    };
    let reader = {
        let d = Arc::clone(&d);
        let published = published.clone();
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut seen: Vec<DirWord> = Vec::new();
            let mut finished = false;
            for _ in 0..max_reads {
                finished = done.load(Ordering::Acquire);
                let w = d.read_word(1, 0, 1);
                if w != DirWord::default() {
                    assert!(
                        published.contains(&w),
                        "reader observed a word the writer never published: {w:?}"
                    );
                    seen.push(w);
                }
                if finished {
                    break;
                }
                thread::yield_now();
            }
            (seen, finished)
        })
    };
    writer.join();
    let (seen, finished) = reader.join();
    if finished {
        assert_eq!(
            seen.last(),
            published.last(),
            "reader must observe the final published word"
        );
    }
    // The observation sequence must be a subsequence of the publish order —
    // a cached or locked read path that replayed stale words out of order
    // would violate this.
    let mut cursor = 0;
    for w in &seen {
        let pos = published[cursor..]
            .iter()
            .position(|p| p == w)
            .expect("observations must move forward through the publish order");
        cursor += pos;
    }
}

/// The sparse directory's read-vs-home-update race (DESIGN.md §12): a
/// single writer on the home-shard node publishes `words` successive
/// exclusive claims (`excl_proc` = 1..=`words`) on page 0 while a remote
/// reader polls `read_word` through its invalidation-on-change cache up to
/// `max_reads` times. Sparse reads are composite (mask word + claim word),
/// so the assertions are per-field rather than whole-word: every observed
/// claim must be one the writer actually published, the observed claim
/// sequence must be non-decreasing (the cache may lag the shard but never
/// travels backwards), and — if the reader saw the writer finish — the last
/// observation must be the final claim (the data-before-bump ordering
/// guarantees a refill on the final version sees the final fields). With
/// `mutant`, the version word is bumped *before* the data words and the
/// explorer must find a schedule where the reader caches stale fields
/// under the final version forever, missing the last claim.
pub fn sparse_directory_read_vs_update(words: u16, max_reads: usize, mutant: bool) {
    let pnodes = 2usize;
    let mc = build_transport(TransportConfig::new(
        (0..pnodes).map(|e| e % 2).collect(),
        2,
    ));
    let d = Arc::new(Directory::new(mc, pnodes, 4, DirectoryMode::Sparse));
    // Page 0's home shard is node 0 — the writer updates locally, the
    // reader on node 1 probes and refills over the (simulated) channel.
    let done = Arc::new(ModelAtomicBool::new(false));
    let writer = {
        let d = Arc::clone(&d);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            for i in 0..words {
                let w = DirWord {
                    perm: if i % 2 == 0 {
                        PermBits::Read
                    } else {
                        PermBits::Write
                    },
                    exclusive: true,
                    excl_proc: i + 1,
                };
                if mutant {
                    d.write_my_word_mutant_version_before_data(0, 0, w, Nanos::from(i));
                } else {
                    d.write_my_word(0, 0, w, Nanos::from(i));
                }
                thread::yield_now();
            }
            done.store(true, Ordering::Release);
        })
    };
    let reader = {
        let d = Arc::clone(&d);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut claims: Vec<u16> = Vec::new();
            let mut finished = false;
            for _ in 0..max_reads {
                finished = done.load(Ordering::Acquire);
                let w = d.read_word(0, 0, 1);
                if w.excl_proc != 0 {
                    assert!(w.exclusive, "a claim always names its holder");
                    assert!(
                        (1..=words).contains(&w.excl_proc),
                        "observed a claim the writer never published: {w:?}"
                    );
                    claims.push(w.excl_proc);
                }
                if finished {
                    break;
                }
                thread::yield_now();
            }
            (claims, finished)
        })
    };
    writer.join();
    let (claims, finished) = reader.join();
    assert!(
        claims.windows(2).all(|w| w[0] <= w[1]),
        "the cache may lag the shard but never travels backwards: {claims:?}"
    );
    if finished && words > 0 {
        assert_eq!(
            claims.last(),
            Some(&words),
            "reader must settle on the final published claim"
        );
    }
}

/// The deterministic scheduler's parked-processor wakeup (DESIGN.md §15):
/// a waiter sleeps on the lookahead horizon while the coordinator advances
/// it past the waiter's virtual time. The seqlock protocol — horizon store
/// first, epoch bump second — guarantees the waiter either re-reads the new
/// horizon before sleeping or captured a pre-bump epoch that the bump
/// wakes. With `mutant`, the advancer bumps the epoch *before* publishing
/// the horizon, and the explorer must find the schedule where the waiter
/// captures the post-bump epoch against the stale horizon and sleeps on an
/// epoch that will never change — detected by the `done` flag the main
/// thread raises once the advancer has provably finished (so a stuck sleep
/// can no longer be woken by any future advance).
pub fn lookahead_wakeup(mutant: bool) {
    let hc = Arc::new(HorizonClock::new(100));
    let done = Arc::new(ModelAtomicBool::new(false));
    let waiter = {
        let hc = Arc::clone(&hc);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            // The sleep closure blocks until the epoch moves off `seen`,
            // exactly like the scheduler's condvar wait (which is banned
            // under exploration) — a yielding spin the explorer can
            // preempt. Once `done` is up no advance is coming, so an
            // unchanged epoch at that point is a lost wakeup, not a race
            // still in flight. `done` is read *before* the epoch so the
            // pair cannot straddle an advance: an epoch still at `seen`
            // after `done` was observed up is conclusive.
            hc.wait_past(50, |seen| loop {
                thread::yield_now();
                let finished = done.load(Ordering::Acquire);
                if hc.sleep_epoch() != seen {
                    return;
                }
                if finished {
                    panic!(
                        "lost wakeup: advance finished but the captured sleep epoch never changed"
                    );
                }
            });
        })
    };
    let advancer = {
        let hc = Arc::clone(&hc);
        thread::spawn(move || {
            if mutant {
                hc.advance_past_mutant_wake_first(50);
            } else {
                hc.advance_past(50);
            }
        })
    };
    advancer.join();
    done.store(true, Ordering::Release);
    waiter.join();
    assert!(
        hc.end() > 50,
        "the horizon must have opened past the waiter"
    );
}

/// The deterministic scheduler's turn hand-off (DESIGN.md §15): two parties
/// pass one turn back and forth `rounds` times, each sleeping on its own
/// [`WakeSlot`] and woken only by the other — the shape of a gate grant
/// followed by the granter's own wait. Each party binds its slot before
/// the other can reach it, as a processor does in `DetHandle::start`: the
/// calling thread is party 1 and binds before it spawns party 0, whose
/// own slot is first woken only after its first turn. The waker raises the
/// flag and then unparks; the sleeper re-checks the flag around every
/// park. Every turn must be taken in order (a wake releases exactly one
/// wait, and a stale park token releases none), and nobody may sleep
/// through its wake. With `mutant`, the waker unparks *before* raising the
/// flag, and the explorer must find the schedule where the sleeper spends
/// the token on a flag still down and parks again with no unpark left to
/// come — reported as a deadlock on `Park`.
pub fn handoff_wakeup(rounds: u64, mutant: bool) {
    let slots = Arc::new([WakeSlot::new(), WakeSlot::new()]);
    let turn = Arc::new(ModelAtomicU64::new(0));
    let party = |me: usize| {
        let slots = Arc::clone(&slots);
        let turn = Arc::clone(&turn);
        move || {
            if me == 0 {
                slots[0].bind();
            }
            for r in 0..rounds {
                // Party 0 starts with the turn; every later turn is
                // handed over.
                if r > 0 || me == 1 {
                    slots[me].wait();
                }
                assert_eq!(
                    turn.fetch_add(1, Ordering::SeqCst),
                    2 * r + me as u64,
                    "party {me} woken out of turn"
                );
                let peer = &slots[1 - me];
                if mutant {
                    peer.wake_mutant_unpark_first();
                } else {
                    peer.wake();
                }
            }
        }
    };
    slots[1].bind();
    let peer = thread::spawn(party(0));
    party(1)();
    peer.join();
    assert_eq!(turn.load(Ordering::SeqCst), 2 * rounds);
}

/// The carriers' one wait (`sync::wait_until`, free-running arm): a waiter
/// at virtual time 10 waits on a flag carrier while a releaser sets it at
/// 9 999. The wait must end, and at the set time: the predicate is tested
/// under the mutex the condvar wait releases, so the set either precedes
/// the test or notifies a queued waiter. With `mutant`, the predicate is
/// tested outside that mutex, and the explorer must find the schedule where
/// the set and its notify land between the test and the wait — reported as
/// a deadlock on `CondWake`.
pub fn carrier_wait(mutant: bool) {
    let engine = Engine::new(RunSpec::new(Topology::new(1, 2), ProtocolKind::TwoLevel));
    let flag = Arc::new(CarrierFlag::default());
    let waiter = {
        let flag = Arc::clone(&flag);
        let mut ctx = engine.make_ctx(ProcId(1));
        ctx.clock.wait_until(10);
        thread::spawn(move || {
            if mutant {
                flag.wait_mutant_predicate_outside_mutex(&ctx, 0)
            } else {
                flag.wait(&ctx, 0)
            }
        })
    };
    let mut ctx = engine.make_ctx(ProcId(0));
    ctx.clock.wait_until(9_999);
    flag.set(&ctx, 0);
    assert_eq!(waiter.join(), 9_999, "the wait ends at the set");
}

/// The trace recorder's sequencing (`core::trace`): `threads` emitters each
/// record `per` events, interleaved by the recorder's lock. The taken
/// [`Trace`](crate::Trace) must iterate numbered `0..n` in order — no gap,
/// no repeat, no sort — with each emitter's events in program order. With
/// `mutant`, the number is drawn in one critical section and the event
/// pushed in a second, and the explorer must find the schedule where
/// another emitter's push lands in between: the trace leaves seq order.
pub fn trace_seq_order(threads: usize, per: usize, mutant: bool) {
    let r = Arc::new(TraceRecorder::new());
    let hs: Vec<_> = (0..threads)
        .map(|pnode| {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                for page in 0..per {
                    let ev = ProtocolEvent::Fetch { pnode, page };
                    if mutant {
                        r.emit_mutant_seq_before_lock(ev);
                    } else {
                        r.emit(ev);
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    let evs = r.take();
    assert_eq!(evs.len(), threads * per, "every emission recorded");
    assert!(
        evs.iter().zip(0..).all(|(e, i)| e.seq == i),
        "trace buffer out of seq order"
    );
    let mut next = vec![0; threads];
    for e in &evs {
        if let ProtocolEvent::Fetch { pnode, page } = e.ev {
            assert_eq!(
                page, next[pnode],
                "emitter {pnode}'s events in program order"
            );
            next[pnode] += 1;
        }
    }
}

/// Mutual exclusion through the Memory Channel lock: `nodes` threads (one
/// per protocol node) each run `iters` critical sections guarded by the
/// paper's set-then-check array protocol, with a yield inside the section
/// to widen any exclusion hole. With `mutant`, acquire checks the array
/// *before* setting its own entry, and the explorer must find a schedule
/// with two simultaneous holders.
pub fn mc_lock_exclusion(nodes: usize, iters: usize, mutant: bool) {
    let mc = build_transport(TransportConfig::new(vec![0; nodes], 1));
    let l = Arc::new(McLock::new(mc, nodes));
    let in_section = Arc::new(ModelAtomicBool::new(false));
    let total = Arc::new(ModelAtomicU64::new(0));
    let hs: Vec<_> = (0..nodes)
        .map(|node| {
            let l = Arc::clone(&l);
            let in_section = Arc::clone(&in_section);
            let total = Arc::clone(&total);
            thread::spawn(move || {
                for _ in 0..iters {
                    let vt = if mutant {
                        l.acquire_mutant_check_before_set(node, 0, 11_000)
                    } else {
                        l.acquire(node, 0, 11_000)
                    };
                    assert!(
                        !in_section.swap(true, Ordering::SeqCst),
                        "two holders inside the critical section"
                    );
                    thread::yield_now();
                    in_section.store(false, Ordering::SeqCst);
                    total.fetch_add(1, Ordering::SeqCst);
                    l.release(node, vt);
                }
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    assert_eq!(total.load(Ordering::SeqCst), (nodes * iters) as u64);
}
