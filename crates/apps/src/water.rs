//! Water: molecular dynamics from the SPLASH suite (§3.2).
//!
//! "The shared array of molecule structures is divided into equal
//! contiguous chunks, with each chunk assigned to a different processor.
//! The bulk of the interprocessor communication occurs during a phase that
//! updates intermolecular forces using locks, resulting in a migratory
//! sharing pattern." Paper size: 4096 molecules (4 MB); sequential
//! 1847.6 s.
//!
//! As in SPLASH Water, each processor computes pair interactions between
//! its molecules and the following n/2 molecules (so each pair is computed
//! exactly once), accumulates force contributions privately, and then adds
//! them into the shared force array under per-molecule locks — the lock-
//! based migratory pattern the paper calls out. Because the shared force
//! accumulation order is nondeterministic, the checksum covers the
//! *positions* after integration with a tolerance-quantized digest.

use cashmere_core::{Cluster, RunSpec, SyncSpec};

use crate::util::{chunk_range, ArrF64, XorShift};
use crate::{AppOutcome, Benchmark, Scale};

/// The Water benchmark instance.
#[derive(Debug, Clone)]
pub struct Water {
    /// Molecule count.
    pub molecules: usize,
    /// Timesteps.
    pub steps: usize,
    /// Extra compute charged per pair interaction (ns).
    pub pair_ns: u64,
}

impl Water {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                molecules: 24,
                steps: 2,
                pair_ns: 400,
            },
            Scale::Bench => Self {
                molecules: 256,
                steps: 2,
                pair_ns: 240_000,
            },
        }
    }
}

impl Benchmark for Water {
    fn name(&self) -> &'static str {
        "Water"
    }

    fn timing_reps(&self) -> usize {
        3
    }

    fn size_description(&self) -> String {
        format!("{} molecules, {} steps", self.molecules, self.steps)
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let words = self.molecules * 9 + 16;
        cfg.heap_pages = words.div_ceil(cashmere_core::PAGE_WORDS) + 6;
        cfg.sync = SyncSpec {
            locks: 64, // one per molecule-chunk owner (see below)
            barriers: 4,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 4;
        cfg.poll_fraction = 0.08;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let n = self.molecules;
        // Layout: positions [3n], velocities [3n], forces [3n].
        let pos = ArrF64::alloc(cluster, 3 * n);
        let vel = ArrF64::alloc(cluster, 3 * n);
        let force = ArrF64::alloc(cluster, 3 * n);
        let mut rng = XorShift::new(0x3A7E5);
        for i in 0..3 * n {
            pos.seed(cluster, i, rng.unit_f64() * 10.0);
            vel.seed(cluster, i, 0.0);
            force.seed(cluster, i, 0.0);
        }

        let steps = self.steps;
        let pair_ns = self.pair_ns;
        let report = cluster.run(|p| {
            let np = p.nprocs();
            let me = p.id();
            let (lo, hi) = chunk_range(n, np, me);
            for _step in 0..steps {
                // Phase 1: zero my molecules' forces.
                for i in lo..hi {
                    for d in 0..3 {
                        force.set(p, 3 * i + d, 0.0);
                    }
                }
                p.barrier(0);

                // Phase 2: pair interactions. Molecule i interacts with the
                // next n/2 molecules (each unordered pair once). Private
                // accumulation, then shared addition under per-molecule
                // locks — the migratory pattern.
                let mut acc: Vec<(usize, [f64; 3])> = Vec::new();
                let add = |idx: usize, f: [f64; 3], acc: &mut Vec<(usize, [f64; 3])>| {
                    if let Some(e) = acc.iter_mut().find(|e| e.0 == idx) {
                        for d in 0..3 {
                            e.1[d] += f[d];
                        }
                    } else {
                        acc.push((idx, f));
                    }
                };
                for i in lo..hi {
                    let pi = [
                        pos.get(p, 3 * i),
                        pos.get(p, 3 * i + 1),
                        pos.get(p, 3 * i + 2),
                    ];
                    for k in 1..=(n / 2) {
                        let j = (i + k) % n;
                        let pj = [
                            pos.get(p, 3 * j),
                            pos.get(p, 3 * j + 1),
                            pos.get(p, 3 * j + 2),
                        ];
                        let dx = [pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]];
                        let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + 1e-6;
                        // A Lennard-Jones-flavored pair force magnitude.
                        let inv = 1.0 / r2;
                        let mag = inv * inv - 0.01 * inv;
                        let f = [mag * dx[0], mag * dx[1], mag * dx[2]];
                        add(i, f, &mut acc);
                        add(j, [-f[0], -f[1], -f[2]], &mut acc);
                        p.compute(pair_ns);
                    }
                }
                // Shared accumulation under molecule-chunk locks: one lock
                // per owning processor's chunk, acquired once per foreign
                // chunk per step (SPLASH Water batches its per-molecule
                // lock traffic the same way; the paper's 32-processor run
                // shows only ~3.7K lock acquires in total).
                let owner_of = |m: usize| {
                    (0..np)
                        .find(|&q| {
                            let (s, e) = chunk_range(n, np, q);
                            m >= s && m < e
                        })
                        .unwrap()
                };
                acc.sort_unstable_by_key(|e| owner_of(e.0));
                let mut i = 0;
                while i < acc.len() {
                    let owner = owner_of(acc[i].0);
                    p.lock(owner);
                    while i < acc.len() && owner_of(acc[i].0) == owner {
                        let (idx, f) = acc[i];
                        for d in 0..3 {
                            let cur = force.get(p, 3 * idx + d);
                            force.set(p, 3 * idx + d, cur + f[d]);
                        }
                        i += 1;
                    }
                    p.unlock(owner);
                }
                p.barrier(1);

                // Phase 3: integrate my molecules.
                let dt = 1e-3;
                for i in lo..hi {
                    for d in 0..3 {
                        let v = vel.get(p, 3 * i + d) + dt * force.get(p, 3 * i + d);
                        vel.set(p, 3 * i + d, v);
                        let x = pos.get(p, 3 * i + d) + dt * v;
                        pos.set(p, 3 * i + d, x);
                    }
                }
                p.barrier(2);
            }
        });

        // Force accumulation order varies with the topology, so positions
        // differ in the last few ulps; digest with a tolerance quantization.
        let mut checksum = 0u64;
        for i in 0..3 * n {
            let v = pos.read_back(cluster, i);
            let q = (v * 1e6).round() as i64;
            checksum = checksum.wrapping_mul(31).wrapping_add(q as u64);
        }
        AppOutcome { report, checksum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn water_matches_sequential_under_every_protocol() {
        let app = Water::new(Scale::Test);
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
    fn water_uses_per_molecule_locks() {
        let app = Water::new(Scale::Test);
        let out = run_app(
            &app,
            &RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel),
        )
        .0;
        // Every processor touches roughly every molecule's lock each step.
        assert!(
            out.report.counters.lock_acquires as usize >= app.molecules,
            "migratory phase must go through the locks: {}",
            out.report.counters.lock_acquires
        );
    }
}
