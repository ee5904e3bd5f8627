//! Em3d: electromagnetic wave propagation through 3D objects (§3.2).
//!
//! "The major data structure is an array that contains the set of magnetic
//! and electric nodes. These are equally distributed among the processors
//! in the system. … the standard input assumes that nodes that belong to a
//! processor have dependencies only on nodes that belong to that processor
//! or neighboring processors. Barriers are used for synchronization."
//! Paper size: 60106 nodes (49 MB); sequential 161.4 s; low computation-to-
//! communication ratio — the app where the two-level protocols' intra-node
//! locality pays off (22% at 32 processors) and where the home-node
//! optimization recovers most of the one-level gap.

use cashmere_core::{Cluster, RunSpec, SyncSpec};

use crate::util::{chunk_range, ArrF64, XorShift};
use crate::{AppOutcome, Benchmark, Scale};

/// The Em3d benchmark instance.
#[derive(Debug, Clone)]
pub struct Em3d {
    /// Electric nodes (the magnetic set has the same size).
    pub nodes: usize,
    /// Dependencies per node.
    pub degree: usize,
    /// Fraction (in percent) of dependencies that cross into a neighboring
    /// processor's partition.
    pub remote_pct: usize,
    /// Iterations.
    pub iters: usize,
    /// Extra compute charged per dependency evaluation (ns).
    pub dep_ns: u64,
}

impl Em3d {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                nodes: 128,
                degree: 3,
                remote_pct: 20,
                iters: 3,
                dep_ns: 40,
            },
            Scale::Bench => Self {
                nodes: 8192,
                degree: 3,
                remote_pct: 20,
                iters: 4,
                dep_ns: 2_500,
            },
        }
    }

    /// Builds the dependency table: for consumer `i` (in a partition of
    /// `parts`), `degree` producer indices in the other field, mostly local,
    /// `remote_pct`% in a neighboring partition.
    fn deps(&self, parts: usize, salt: u64) -> Vec<u32> {
        let n = self.nodes;
        let mut rng = XorShift::new(0xE3D + salt);
        let mut out = Vec::with_capacity(n * self.degree);
        for i in 0..n {
            // Which partition does node i belong to?
            let part = (0..parts)
                .find(|&k| {
                    let (s, e) = chunk_range(n, parts, k);
                    i >= s && i < e
                })
                .unwrap();
            for _ in 0..self.degree {
                let target_part = if rng.below(100) < self.remote_pct && parts > 1 {
                    // A neighboring partition.
                    if rng.below(2) == 0 {
                        (part + 1) % parts
                    } else {
                        (part + parts - 1) % parts
                    }
                } else {
                    part
                };
                let (s, e) = chunk_range(n, parts, target_part);
                out.push((s + rng.below((e - s).max(1))) as u32);
            }
        }
        out
    }
}

impl Benchmark for Em3d {
    fn name(&self) -> &'static str {
        "Em3d"
    }

    fn size_description(&self) -> String {
        format!(
            "{} E + {} H nodes, degree {}, {}% remote",
            self.nodes, self.nodes, self.degree, self.remote_pct
        )
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let words = 2 * self.nodes * (1 + self.degree + self.degree);
        cfg.heap_pages = words.div_ceil(cashmere_core::PAGE_WORDS) + 6;
        cfg.sync = SyncSpec {
            locks: 1,
            barriers: 2,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 4;
        cfg.poll_fraction = 0.12;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let n = self.nodes;
        let deg = self.degree;
        let e_vals = ArrF64::alloc(cluster, n);
        let h_vals = ArrF64::alloc(cluster, n);
        let e_weights = ArrF64::alloc(cluster, n * deg);
        let h_weights = ArrF64::alloc(cluster, n * deg);

        // The dependency graph is partitioned by the *processor count* of
        // this run, as in the Split-C original where the graph is built to
        // match the machine.
        let parts = cluster.config().topology.total_procs();
        let e_deps_tbl = self.deps(parts, 1); // E consumers read H producers
        let h_deps_tbl = self.deps(parts, 2); // H consumers read E producers

        let mut rng = XorShift::new(0x3D3D);
        for i in 0..n {
            e_vals.seed(cluster, i, rng.unit_f64());
            h_vals.seed(cluster, i, rng.unit_f64());
        }
        for i in 0..n * deg {
            e_weights.seed(cluster, i, rng.unit_f64() * 0.1);
            h_weights.seed(cluster, i, rng.unit_f64() * 0.1);
        }

        let iters = self.iters;
        let dep_ns = self.dep_ns;
        let e_deps = &e_deps_tbl;
        let h_deps = &h_deps_tbl;
        let report = cluster.run(|p| {
            let (lo, hi) = chunk_range(n, p.nprocs(), p.id());
            for _ in 0..iters {
                // Update my E nodes from H producers.
                for i in lo..hi {
                    let mut v = e_vals.get(p, i);
                    for d in 0..deg {
                        let src = e_deps[i * deg + d] as usize;
                        v -= e_weights.get(p, i * deg + d) * h_vals.get(p, src);
                    }
                    e_vals.set(p, i, v);
                    p.compute(dep_ns * deg as u64);
                }
                p.barrier(0);
                // Update my H nodes from E producers.
                for i in lo..hi {
                    let mut v = h_vals.get(p, i);
                    for d in 0..deg {
                        let src = h_deps[i * deg + d] as usize;
                        v -= h_weights.get(p, i * deg + d) * e_vals.get(p, src);
                    }
                    h_vals.set(p, i, v);
                    p.compute(dep_ns * deg as u64);
                }
                p.barrier(1);
            }
        });

        let checksum = e_vals
            .checksum(cluster)
            .wrapping_mul(31)
            .wrapping_add(h_vals.checksum(cluster));
        AppOutcome { report, checksum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn em3d_matches_across_protocols_at_fixed_processor_count() {
        // The graph depends on the processor count (as in Split-C), so
        // compare protocols at the same topology width against each other.
        let app = Em3d::new(Scale::Test);
        let base = run_app(
            &app,
            &RunSpec::new(Topology::new(4, 1), ProtocolKind::TwoLevel),
        )
        .0;
        for protocol in [
            ProtocolKind::TwoLevelShootdown,
            ProtocolKind::OneLevelDiff,
            ProtocolKind::OneLevelWrite,
            ProtocolKind::OneLevelDiffHome,
        ] {
            let par = run_app(&app, &RunSpec::new(Topology::new(2, 2), protocol)).0;
            assert_eq!(par.checksum, base.checksum, "{}", protocol.label());
        }
    }

    #[test]
    fn dependency_table_respects_partition_neighborhoods() {
        let app = Em3d {
            nodes: 64,
            degree: 4,
            remote_pct: 30,
            iters: 1,
            dep_ns: 0,
        };
        let parts = 4;
        let deps = app.deps(parts, 1);
        assert_eq!(deps.len(), 64 * 4);
        let mut any_remote = false;
        for i in 0..64usize {
            let my_part = i * parts / 64; // chunks are equal here
            for d in 0..4 {
                let src = deps[i * 4 + d] as usize;
                assert!(src < 64);
                let src_part = src * parts / 64;
                let dist = (my_part as i64 - src_part as i64).rem_euclid(parts as i64);
                assert!(
                    dist == 0 || dist == 1 || dist == parts as i64 - 1,
                    "dependency crosses beyond a neighbor: {my_part} -> {src_part}"
                );
                if dist != 0 {
                    any_remote = true;
                }
            }
        }
        assert!(any_remote, "some dependencies must be remote");
    }
}
