//! Ilink: genetic linkage analysis — synthetic stand-in (§3.2, DESIGN.md).
//!
//! The real Ilink is the FASTLINK 2.3P genetic-linkage program running on a
//! proprietary pedigree input (CLP, 15 MB; sequential 899 s). The input
//! data is unavailable, so this is a synthetic workload with Ilink's
//! documented *sharing shape*:
//!
//! * "The main shared data is a pool of sparse arrays of genotype
//!   probabilities" — a bank of sparse probability arrays (index/value
//!   pairs) in shared memory;
//! * "For load balance, non-zero elements are assigned to processors in a
//!   round-robin fashion" — element `e` is processed by processor
//!   `e % nprocs`;
//! * "The computation is master-slave, with one-to-all and all-to-one data
//!   communication. Barriers are used for synchronization." — each
//!   iteration the master broadcasts updated parameters, slaves compute
//!   partial sums into per-processor slots, the master combines them;
//! * "Scalability is limited by an inherent serial component and inherent
//!   load imbalance" — the master performs serial work each iteration, and
//!   element costs vary pseudo-randomly.
//!
//! The one-to-all / all-to-one pattern is what gives Ilink its 40%
//! two-level win in the paper (fetch coalescing within a node).

use cashmere_core::{Cluster, RunSpec, SyncSpec};

use crate::util::{ArrF64, ArrU64, XorShift};
use crate::{AppOutcome, Benchmark, Scale};

/// The Ilink benchmark instance.
#[derive(Debug, Clone)]
pub struct Ilink {
    /// Non-zero elements in the sparse probability pool.
    pub nonzeros: usize,
    /// Parameter-vector length broadcast by the master each iteration.
    pub params: usize,
    /// Outer iterations (likelihood evaluations).
    pub iters: usize,
    /// Base compute per element (ns); actual cost varies ±100% for load
    /// imbalance.
    pub elem_ns: u64,
    /// Serial master work per iteration (ns).
    pub serial_ns: u64,
}

impl Ilink {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                nonzeros: 256,
                params: 64,
                iters: 2,
                elem_ns: 300,
                serial_ns: 200_000,
            },
            Scale::Bench => Self {
                nonzeros: 8192,
                params: 512,
                iters: 5,
                elem_ns: 50_000,
                serial_ns: 12_000_000,
            },
        }
    }
}

impl Benchmark for Ilink {
    fn name(&self) -> &'static str {
        "Ilink"
    }

    fn size_description(&self) -> String {
        format!(
            "{} sparse nonzeros, {} parameters, {} iterations",
            self.nonzeros, self.params, self.iters
        )
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let words = self.nonzeros * 2 + self.params + 64 * cashmere_core::PAGE_WORDS + 64;
        cfg.heap_pages = words.div_ceil(cashmere_core::PAGE_WORDS) + 6;
        cfg.sync = SyncSpec {
            locks: 1,
            barriers: 2,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 3;
        cfg.poll_fraction = 0.10;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let nnz = self.nonzeros;
        // Sparse pool: per element an index into the parameter vector and a
        // probability value.
        let idx = ArrU64::alloc(cluster, nnz);
        let val = ArrF64::alloc(cluster, nnz);
        // Master-broadcast parameter vector.
        let params = ArrF64::alloc(cluster, self.params);
        // Per-processor partial-sum slots, page-spaced to avoid false
        // sharing between slaves (all-to-one combining still fetches every
        // slot to the master).
        let max_procs = 64;
        let partial = ArrF64::alloc(cluster, max_procs * cashmere_core::PAGE_WORDS);
        // The final likelihood.
        let result = ArrF64::alloc(cluster, 1);

        let mut rng = XorShift::new(0x111CC);
        for e in 0..nnz {
            idx.seed(cluster, e, rng.below(self.params) as u64);
            val.seed(cluster, e, rng.unit_f64());
        }
        for k in 0..self.params {
            params.seed(cluster, k, 1.0 + k as f64 * 1e-3);
        }

        let iters = self.iters;
        let elem_ns = self.elem_ns;
        let serial_ns = self.serial_ns;
        let report = cluster.run(|p| {
            let np = p.nprocs();
            let me = p.id();
            let mut imb = XorShift::new(0x1417 + me as u64);
            for it in 0..iters {
                // Master: serial pedigree traversal + parameter update
                // (one-to-all: every slave will read these).
                if me == 0 {
                    p.compute(serial_ns);
                    for k in 0..self.params {
                        let v = params.get(p, k);
                        params.set(p, k, v * 0.999 + 1e-4 * (it + 1) as f64);
                    }
                }
                p.barrier(0);

                // Slaves: round-robin element assignment, imbalanced costs.
                let mut sum = 0.0;
                let mut e = me;
                while e < nnz {
                    let k = idx.get(p, e) as usize;
                    let v = val.get(p, e);
                    sum += v * params.get(p, k);
                    p.compute(elem_ns + imb.below(elem_ns as usize + 1) as u64);
                    e += np;
                }
                partial.set(p, me * cashmere_core::PAGE_WORDS, sum);
                p.barrier(1);

                // Master combines (all-to-one) and applies serial work.
                if me == 0 {
                    let mut total = 0.0;
                    for q in 0..np {
                        total += partial.get(p, q * cashmere_core::PAGE_WORDS);
                    }
                    let r = result.get(p, 0);
                    result.set(p, 0, r + total);
                    p.compute(serial_ns / 2);
                }
            }
            p.barrier(0);
        });

        // The combining order over processor slots is fixed (0..np), so the
        // likelihood is deterministic for a given processor count; across
        // processor counts the partial-sum grouping changes, so the digest
        // is tolerance-quantized.
        let r = result.read_back(cluster, 0);
        AppOutcome {
            report,
            checksum: (r * 1e9).round() as i64 as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn ilink_matches_across_protocols_at_fixed_width() {
        let app = Ilink::new(Scale::Test);
        let base = run_app(
            &app,
            &RunSpec::new(Topology::new(4, 1), ProtocolKind::TwoLevel),
        )
        .0;
        for protocol in ProtocolKind::PAPER_FOUR {
            let par = run_app(&app, &RunSpec::new(Topology::new(2, 2), protocol)).0;
            assert_eq!(par.checksum, base.checksum, "{}", protocol.label());
        }
    }

    #[test]
    fn ilink_sequential_agrees_with_parallel_up_to_fp_grouping() {
        let app = Ilink::new(Scale::Test);
        let seq = run_app(
            &app,
            &RunSpec::new(Topology::new(1, 1), ProtocolKind::TwoLevel),
        )
        .0;
        let par = run_app(
            &app,
            &RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel),
        )
        .0;
        // Same quantized likelihood (the sum regroups across widths; the
        // 1e-9 quantization absorbs that).
        assert_eq!(seq.checksum, par.checksum);
    }
}
