//! TSP: branch-and-bound traveling salesman (§3.2).
//!
//! "Locks are used to insert and delete unsolved tours in a priority queue.
//! Updates to the shortest path are protected by a separate lock. The
//! algorithm is non-deterministic in the sense that the earlier some
//! processor stumbles upon the shortest path, the more quickly other parts
//! of the search space can be pruned." Paper size: 17 cities (1 MB);
//! sequential 4029 s.
//!
//! The shared state is a stack of partial tours (records in shared memory
//! under the queue lock), the best-tour bound (under its own lock), and the
//! distance matrix (read-only after seeding). The amount of *work* is
//! nondeterministic, but the answer — the optimal tour length — is checked
//! against exhaustive search in the tests.

use cashmere_core::{Cluster, Proc, RunSpec, SyncSpec};

use crate::util::{ArrU64, XorShift};
use crate::{AppOutcome, Benchmark, Scale};

/// The TSP benchmark instance.
#[derive(Debug, Clone)]
pub struct Tsp {
    /// City count (≤ 16; tours are packed 4 bits per city).
    pub cities: usize,
    /// Extra compute charged per node expansion (ns).
    pub expand_ns: u64,
}

/// Shared queue capacity in records.
const QUEUE_CAP: usize = 4096;
/// Sub-tours with at most this many unvisited cities are solved locally by
/// the popping processor instead of going back through the shared queue.
const TAIL_CITIES: u32 = 8;
/// Words per tour record: cost, visited mask, current city, packed path.
const REC_WORDS: usize = 4;

impl Tsp {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                cities: 10,
                expand_ns: 2_000,
            },
            Scale::Bench => Self {
                cities: 12,
                expand_ns: 20_000,
            },
        }
    }

    fn distances(&self) -> Vec<u64> {
        let n = self.cities;
        let mut rng = XorShift::new(0x75B0 + n as u64);
        let mut d = vec![0u64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = 10 + rng.below(90) as u64;
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        d
    }

    /// Exhaustive optimum (tests and verification).
    pub fn brute_force(&self) -> u64 {
        let n = self.cities;
        let d = self.distances();
        fn rec(d: &[u64], n: usize, cur: usize, visited: u64, cost: u64, best: &mut u64) {
            if visited == (1 << n) - 1 {
                *best = (*best).min(cost + d[cur * n]);
                return;
            }
            for next in 1..n {
                if visited >> next & 1 == 0 {
                    let c = cost + d[cur * n + next];
                    if c < *best {
                        rec(d, n, next, visited | 1 << next, c, best);
                    }
                }
            }
        }
        let mut best = u64::MAX;
        rec(&d, n, 0, 1, 0, &mut best);
        best
    }
}

/// Depth-first search of a small sub-tour tail; returns the best complete
/// tour found below the node, if it beats `bound`.
fn solve_tail(
    p: &mut Proc,
    dist: &[u64],
    n: usize,
    cur: usize,
    visited: u64,
    cost: u64,
    bound: u64,
) -> Option<u64> {
    if visited == (1u64 << n) - 1 {
        let total = cost + dist[cur * n];
        return (total < bound).then_some(total);
    }
    let mut best = bound;
    let mut found = None;
    for next in 1..n {
        if visited >> next & 1 == 0 {
            let c = cost + dist[cur * n + next];
            if c < best {
                p.compute(50_000);
                if let Some(t) = solve_tail(p, dist, n, next, visited | 1 << next, c, best) {
                    best = t;
                    found = Some(t);
                }
            }
        }
    }
    found
}

/// Shared-memory layout for a TSP run.
struct Layout {
    dist: ArrU64,
    /// [0] = stack top, [1] = in-flight worker count, [2] = best cost.
    ctl: ArrU64,
    queue: ArrU64,
}

const LOCK_QUEUE: usize = 0;
const LOCK_BEST: usize = 1;

impl Layout {
    fn push(&self, p: &mut Proc, cost: u64, visited: u64, cur: u64, path: u64) {
        let top = self.ctl.get(p, 0) as usize;
        assert!(top < QUEUE_CAP, "TSP shared queue overflow");
        let base = top * REC_WORDS;
        self.queue.set(p, base, cost);
        self.queue.set(p, base + 1, visited);
        self.queue.set(p, base + 2, cur);
        self.queue.set(p, base + 3, path);
        self.ctl.set(p, 0, top as u64 + 1);
    }

    fn pop(&self, p: &mut Proc) -> Option<(u64, u64, u64, u64)> {
        let top = self.ctl.get(p, 0) as usize;
        if top == 0 {
            return None;
        }
        let base = (top - 1) * REC_WORDS;
        let rec = (
            self.queue.get(p, base),
            self.queue.get(p, base + 1),
            self.queue.get(p, base + 2),
            self.queue.get(p, base + 3),
        );
        self.ctl.set(p, 0, top as u64 - 1);
        Some(rec)
    }
}

impl Benchmark for Tsp {
    fn name(&self) -> &'static str {
        "TSP"
    }

    fn timing_reps(&self) -> usize {
        3
    }

    fn size_description(&self) -> String {
        format!("{} cities", self.cities)
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let words = self.cities * self.cities + 16 + QUEUE_CAP * REC_WORDS;
        cfg.heap_pages = words.div_ceil(cashmere_core::PAGE_WORDS) + 4;
        cfg.sync = SyncSpec {
            locks: 2,
            barriers: 2,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 2;
        cfg.poll_fraction = 0.02; // TSP is the paper's lowest-polling app
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let n = self.cities;
        let lay = Layout {
            dist: ArrU64::alloc(cluster, n * n),
            ctl: ArrU64::alloc(cluster, 16),
            queue: ArrU64::alloc(cluster, QUEUE_CAP * REC_WORDS),
        };
        let d = self.distances();
        for (i, v) in d.iter().enumerate() {
            lay.dist.seed(cluster, i, *v);
        }
        lay.ctl.seed(cluster, 2, u64::MAX); // best = ∞

        let expand_ns = self.expand_ns;
        let report = cluster.run(|p| {
            // The distance matrix is read-only after seeding; each worker
            // reads it through the DSM once and keeps a private copy (the
            // hardware caches it the same way).
            let mut dist = vec![0u64; n * n];
            for (i, d) in dist.iter_mut().enumerate() {
                *d = lay.dist.get(p, i);
            }
            if p.id() == 0 {
                // Seed the root tour (at city 0) under the queue lock.
                p.lock(LOCK_QUEUE);
                lay.push(p, 0, 1, 0, 0);
                p.unlock(LOCK_QUEUE);
            }
            p.barrier(0);

            loop {
                // Grab work.
                p.lock(LOCK_QUEUE);
                let rec = lay.pop(p);
                if rec.is_some() {
                    let inflight = lay.ctl.get(p, 1);
                    lay.ctl.set(p, 1, inflight + 1);
                }
                let inflight = lay.ctl.get(p, 1);
                p.unlock(LOCK_QUEUE);

                let Some((cost, visited, cur, path)) = rec else {
                    if inflight == 0 {
                        break; // queue empty and nobody working: done
                    }
                    p.compute(5_000); // idle back-off before re-checking
                    continue;
                };

                p.compute(expand_ns);
                // The bound is read without the lock (a stale — larger —
                // bound only weakens pruning; updates are lock-protected).
                let best_now = lay.ctl.get(p, 2);

                if cost < best_now {
                    let remaining = n as u32 - visited.count_ones();
                    if remaining <= TAIL_CITIES {
                        // Small subtree: solve it locally (depth-first, no
                        // queue traffic), as the real TSP expands whole
                        // sub-tours per queue grab.
                        let found = solve_tail(p, &dist, n, cur as usize, visited, cost, best_now);
                        if let Some(total) = found {
                            p.lock(LOCK_BEST);
                            if total < lay.ctl.get(p, 2) {
                                lay.ctl.set(p, 2, total);
                            }
                            p.unlock(LOCK_BEST);
                        }
                    } else {
                        // Expand children (pushed deepest-first for
                        // DFS-flavored bounding).
                        for next in (1..n).rev() {
                            if visited >> next & 1 == 0 {
                                let c = cost + dist[cur as usize * n + next];
                                if c < best_now {
                                    let depth = visited.count_ones() as u64;
                                    let new_path = path | (next as u64) << (4 * depth);
                                    p.lock(LOCK_QUEUE);
                                    lay.push(p, c, visited | 1 << next, next as u64, new_path);
                                    p.unlock(LOCK_QUEUE);
                                }
                            }
                        }
                    }
                }

                // Retire the work item.
                p.lock(LOCK_QUEUE);
                let inflight = lay.ctl.get(p, 1);
                lay.ctl.set(p, 1, inflight - 1);
                p.unlock(LOCK_QUEUE);
            }
            p.barrier(1);
        });

        AppOutcome {
            report,
            checksum: lay.ctl.read_back(cluster, 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn tsp_finds_the_optimal_tour_under_every_protocol() {
        let app = Tsp::new(Scale::Test);
        let optimal = app.brute_force();
        assert_ne!(optimal, u64::MAX);
        for protocol in ProtocolKind::PAPER_FOUR {
            let out = run_app(&app, &RunSpec::new(Topology::new(2, 2), protocol)).0;
            assert_eq!(out.checksum, optimal, "{}", protocol.label());
        }
    }

    #[test]
    fn tsp_sequential_matches_brute_force() {
        let app = Tsp::new(Scale::Test);
        let out = run_app(
            &app,
            &RunSpec::new(Topology::new(1, 1), ProtocolKind::OneLevelDiff),
        )
        .0;
        assert_eq!(out.checksum, app.brute_force());
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let app = Tsp::new(Scale::Bench);
        let d = app.distances();
        let n = app.cities;
        for i in 0..n {
            assert_eq!(d[i * n + i], 0);
            for j in 0..n {
                assert_eq!(d[i * n + j], d[j * n + i]);
            }
        }
    }
}
