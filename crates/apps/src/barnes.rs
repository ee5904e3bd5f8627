//! Barnes: hierarchical Barnes-Hut N-body simulation from SPLASH (§3.2).
//!
//! "The major shared data structures are two arrays, one representing the
//! bodies and the other representing the cells, a collection of bodies in
//! close physical proximity. The Barnes-Hut tree construction is performed
//! sequentially, while all other phases are parallelized and dynamically
//! load balanced. Synchronization consists of barriers between phases."
//! Paper size: 128 K bodies (26 MB); sequential 469.4 s; low computation-
//! to-communication ratio — the app with the paper's largest two-level win
//! (46%), driven by coalesced fetches of the tree and body arrays.
//!
//! The octree lives in shared memory as two parallel arrays (per-cell
//! floating data and per-cell child links); processor 0 builds it between
//! barriers, then all processors walk it to compute forces, grabbing bodies
//! in batches from a lock-protected shared work counter (the dynamic load
//! balancing).

use cashmere_core::{Cluster, Proc, RunSpec, SyncSpec};

use crate::util::{chunk_range, ArrF64, ArrU64, XorShift};
use crate::{AppOutcome, Benchmark, Scale};

/// The Barnes benchmark instance.
#[derive(Debug, Clone)]
pub struct Barnes {
    /// Body count.
    pub bodies: usize,
    /// Timesteps.
    pub steps: usize,
    /// Opening criterion (θ): larger accepts cells earlier.
    pub theta: f64,
    /// Extra compute charged per body-cell interaction (ns).
    pub interact_ns: u64,
}

/// Words of floating data per cell: center-of-mass x/y/z, mass, cell center
/// x/y/z, half-size.
const CELL_F: usize = 8;
/// Child-link words per cell.
const CELL_C: usize = 8;
/// Child-link encoding: 0 = empty, 1+i = cell i, `BODY_TAG`+b = body b.
const BODY_TAG: u64 = 1 << 32;

impl Barnes {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                bodies: 32,
                steps: 2,
                theta: 0.6,
                interact_ns: 150,
            },
            Scale::Bench => Self {
                bodies: 512,
                steps: 2,
                theta: 0.6,
                interact_ns: 20_000,
            },
        }
    }

    fn max_cells(&self) -> usize {
        8 * self.bodies + 64
    }
}

/// Shared-memory layout for a Barnes run.
#[derive(Clone, Copy)]
struct Layout {
    pos: ArrF64,
    vel: ArrF64,
    acc: ArrF64,
    mass: ArrF64,
    cell_f: ArrF64,
    cell_c: ArrU64,
    /// [0] = cell count, [1] = dynamic work cursor.
    ctl: ArrU64,
}

const LOCK_WORK: usize = 0;
const WORK_BATCH: usize = 4;

impl Layout {
    fn body_pos(&self, p: &mut Proc, b: usize) -> [f64; 3] {
        [
            self.pos.get(p, 3 * b),
            self.pos.get(p, 3 * b + 1),
            self.pos.get(p, 3 * b + 2),
        ]
    }

    /// Allocates a fresh cell centered at `center` with `half` half-size.
    fn new_cell(&self, p: &mut Proc, center: [f64; 3], half: f64) -> usize {
        let idx = self.ctl.get(p, 0) as usize;
        assert!(
            idx < self.cell_f.len() / CELL_F,
            "Barnes cell pool exhausted"
        );
        self.ctl.set(p, 0, idx as u64 + 1);
        for d in 0..3 {
            self.cell_f.set(p, idx * CELL_F + 4 + d, center[d]);
        }
        self.cell_f.set(p, idx * CELL_F + 7, half);
        for k in 0..CELL_C {
            self.cell_c.set(p, idx * CELL_C + k, 0);
        }
        for k in 0..4 {
            self.cell_f.set(p, idx * CELL_F + k, 0.0);
        }
        idx
    }

    fn octant(center: [f64; 3], q: [f64; 3]) -> usize {
        (usize::from(q[0] >= center[0]) << 2)
            | (usize::from(q[1] >= center[1]) << 1)
            | usize::from(q[2] >= center[2])
    }

    fn child_center(&self, p: &mut Proc, cell: usize, oct: usize) -> ([f64; 3], f64) {
        let half = self.cell_f.get(p, cell * CELL_F + 7) / 2.0;
        let mut c = [0.0; 3];
        for d in 0..3 {
            let base = self.cell_f.get(p, cell * CELL_F + 4 + d);
            let sign = if oct >> (2 - d) & 1 == 1 { 1.0 } else { -1.0 };
            c[d] = base + sign * half;
        }
        (c, half)
    }

    /// Inserts body `b` into the tree rooted at `root` (processor 0 only).
    fn insert(&self, p: &mut Proc, root: usize, b: usize) {
        let q = self.body_pos(p, b);
        let mut cell = root;
        loop {
            let center = [
                self.cell_f.get(p, cell * CELL_F + 4),
                self.cell_f.get(p, cell * CELL_F + 5),
                self.cell_f.get(p, cell * CELL_F + 6),
            ];
            let oct = Self::octant(center, q);
            let link = self.cell_c.get(p, cell * CELL_C + oct);
            if link == 0 {
                self.cell_c.set(p, cell * CELL_C + oct, BODY_TAG + b as u64);
                return;
            }
            if link >= BODY_TAG {
                // Occupied by a body: split into a subcell and reinsert both.
                let other = (link - BODY_TAG) as usize;
                let (cc, ch) = self.child_center(p, cell, oct);
                let sub = self.new_cell(p, cc, ch);
                self.cell_c.set(p, cell * CELL_C + oct, 1 + sub as u64);
                // Re-insert the displaced body into the subcell, then loop
                // to place `b`.
                let oq = self.body_pos(p, other);
                let o_oct = Self::octant(cc, oq);
                self.cell_c
                    .set(p, sub * CELL_C + o_oct, BODY_TAG + other as u64);
                cell = sub;
            } else {
                cell = (link - 1) as usize;
            }
        }
    }

    /// Computes centers of mass bottom-up (recursive; processor 0 only).
    fn summarize(&self, p: &mut Proc, cell: usize) -> (f64, [f64; 3]) {
        let mut m = 0.0;
        let mut com = [0.0; 3];
        for k in 0..CELL_C {
            let link = self.cell_c.get(p, cell * CELL_C + k);
            if link == 0 {
                continue;
            }
            let (cm, cc) = if link >= BODY_TAG {
                let b = (link - BODY_TAG) as usize;
                (self.mass.get(p, b), self.body_pos(p, b))
            } else {
                self.summarize(p, (link - 1) as usize)
            };
            m += cm;
            for d in 0..3 {
                com[d] += cm * cc[d];
            }
        }
        if m > 0.0 {
            for d in 0..3 {
                com[d] /= m;
            }
        }
        self.cell_f.set(p, cell * CELL_F + 3, m);
        for d in 0..3 {
            self.cell_f.set(p, cell * CELL_F + d, com[d]);
        }
        (m, com)
    }

    /// Accumulates the force on body `b` by walking the tree (any
    /// processor; reads only).
    fn force_on(
        &self,
        p: &mut Proc,
        root: usize,
        b: usize,
        theta: f64,
        interact_ns: u64,
    ) -> [f64; 3] {
        let q = self.body_pos(p, b);
        let mut f = [0.0; 3];
        let mut stack = vec![1 + root as u64];
        while let Some(link) = stack.pop() {
            if link == 0 {
                continue;
            }
            let (m, c) = if link >= BODY_TAG {
                let other = (link - BODY_TAG) as usize;
                if other == b {
                    continue;
                }
                (self.mass.get(p, other), self.body_pos(p, other))
            } else {
                let cell = (link - 1) as usize;
                let m = self.cell_f.get(p, cell * CELL_F + 3);
                let c = [
                    self.cell_f.get(p, cell * CELL_F),
                    self.cell_f.get(p, cell * CELL_F + 1),
                    self.cell_f.get(p, cell * CELL_F + 2),
                ];
                let size = self.cell_f.get(p, cell * CELL_F + 7) * 2.0;
                let dx = [c[0] - q[0], c[1] - q[1], c[2] - q[2]];
                let dist = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]).sqrt();
                if size / (dist + 1e-12) >= theta {
                    // Too close: open the cell.
                    for k in 0..CELL_C {
                        stack.push(self.cell_c.get(p, cell * CELL_C + k));
                    }
                    continue;
                }
                (m, c)
            };
            let dx = [c[0] - q[0], c[1] - q[1], c[2] - q[2]];
            let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + 1e-4;
            let inv_r3 = 1.0 / (r2 * r2.sqrt());
            for d in 0..3 {
                f[d] += m * dx[d] * inv_r3;
            }
            p.compute(interact_ns);
        }
        f
    }
}

impl Benchmark for Barnes {
    fn name(&self) -> &'static str {
        "Barnes"
    }

    fn timing_reps(&self) -> usize {
        3
    }

    fn size_description(&self) -> String {
        format!(
            "{} bodies, {} steps, θ={}",
            self.bodies, self.steps, self.theta
        )
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let n = self.bodies;
        let words = 3 * n * 3 + n + self.max_cells() * (CELL_F + CELL_C) + 16;
        cfg.heap_pages = words.div_ceil(cashmere_core::PAGE_WORDS) + 8;
        cfg.sync = SyncSpec {
            locks: 1,
            barriers: 4,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 3;
        cfg.poll_fraction = 0.15;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let n = self.bodies;
        let lay = Layout {
            pos: ArrF64::alloc(cluster, 3 * n),
            vel: ArrF64::alloc(cluster, 3 * n),
            acc: ArrF64::alloc(cluster, 3 * n),
            mass: ArrF64::alloc(cluster, n),
            cell_f: ArrF64::alloc(cluster, self.max_cells() * CELL_F),
            cell_c: ArrU64::alloc(cluster, self.max_cells() * CELL_C),
            ctl: ArrU64::alloc(cluster, 16),
        };
        let mut rng = XorShift::new(0xBA13E5);
        for b in 0..n {
            for d in 0..3 {
                lay.pos.seed(cluster, 3 * b + d, rng.unit_f64() * 2.0 - 1.0);
                lay.vel.seed(cluster, 3 * b + d, 0.0);
            }
            lay.mass.seed(cluster, b, 0.5 + rng.unit_f64());
        }

        let steps = self.steps;
        let theta = self.theta;
        let interact_ns = self.interact_ns;
        let report = cluster.run(|p| {
            let np = p.nprocs();
            let me = p.id();
            for _step in 0..steps {
                // Phase 1 (sequential, processor 0): build the tree.
                if me == 0 {
                    lay.ctl.set(p, 0, 0); // reset cell pool
                    lay.ctl.set(p, 1, 0); // reset work cursor
                    let root = lay.new_cell(p, [0.0; 3], 2.0);
                    for b in 0..n {
                        lay.insert(p, root, b);
                    }
                    lay.summarize(p, root);
                }
                p.barrier(0);

                // Phase 2: forces, dynamically load balanced via the shared
                // work cursor.
                loop {
                    p.lock(LOCK_WORK);
                    let start = lay.ctl.get(p, 1) as usize;
                    let end = (start + WORK_BATCH).min(n);
                    lay.ctl.set(p, 1, end as u64);
                    p.unlock(LOCK_WORK);
                    if start >= n {
                        break;
                    }
                    for b in start..end {
                        let f = lay.force_on(p, 0, b, theta, interact_ns);
                        for d in 0..3 {
                            lay.acc.set(p, 3 * b + d, f[d]);
                        }
                    }
                }
                p.barrier(1);

                // Phase 3: integrate (static chunks).
                let (lo, hi) = chunk_range(n, np, me);
                let dt = 1e-2;
                for b in lo..hi {
                    for d in 0..3 {
                        let v = lay.vel.get(p, 3 * b + d) + dt * lay.acc.get(p, 3 * b + d);
                        lay.vel.set(p, 3 * b + d, v);
                        let x = lay.pos.get(p, 3 * b + d) + dt * v;
                        lay.pos.set(p, 3 * b + d, x);
                    }
                }
                p.barrier(2);
            }
        });

        // Per-body force computation is order-deterministic, so positions
        // are bitwise reproducible across protocols and topologies.
        AppOutcome {
            report,
            checksum: lay.pos.checksum(cluster),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn barnes_matches_sequential_under_every_protocol() {
        let app = Barnes::new(Scale::Test);
        let seq = run_app(
            &app,
            &RunSpec::new(Topology::new(1, 1), ProtocolKind::TwoLevel),
        )
        .0;
        for protocol in ProtocolKind::PAPER_FOUR {
            let par = run_app(&app, &RunSpec::new(Topology::new(2, 2), protocol)).0;
            assert_eq!(par.checksum, seq.checksum, "{}", protocol.label());
        }
    }

    #[test]
    fn barnes_bodies_actually_move() {
        let app = Barnes::new(Scale::Test);
        let mut cfg = RunSpec::new(Topology::new(2, 1), ProtocolKind::TwoLevel);
        app.configure(&mut cfg);
        let mut cluster = Cluster::new(cfg);
        // Re-derive the initial positions to compare against.
        let mut rng = XorShift::new(0xBA13E5);
        let mut init = Vec::new();
        for _b in 0..app.bodies {
            for _d in 0..3 {
                init.push(rng.unit_f64() * 2.0 - 1.0);
            }
            let _ = rng.unit_f64(); // mass draw
        }
        let out = app.execute(&mut cluster);
        assert_ne!(out.checksum, 0);
        // Gravity is attractive: positions must have changed.
        // (execute's allocations start at the heap base: pos is first.)
        let mut moved = 0;
        for (i, v) in init.iter().enumerate() {
            if (cluster.read_f64(i) - v).abs() > 1e-12 {
                moved += 1;
            }
        }
        assert!(moved > app.bodies, "most coordinates moved, got {moved}");
    }

    #[test]
    fn octant_partitioning_is_consistent() {
        let c = [0.0, 0.0, 0.0];
        assert_eq!(Layout::octant(c, [1.0, 1.0, 1.0]), 0b111);
        assert_eq!(Layout::octant(c, [-1.0, -1.0, -1.0]), 0b000);
        assert_eq!(Layout::octant(c, [1.0, -1.0, 1.0]), 0b101);
    }
}
