//! LU: blocked dense LU factorization from SPLASH-2 (§3.2).
//!
//! "The matrix A is divided into square blocks for temporal and spatial
//! locality. Each block is 'owned' by a processor, which performs all
//! computation on it." Paper size: 2048×2048 (33 MB); sequential 254.8 s.
//!
//! The interesting protocol behavior (§3.3.3): pivot blocks are written
//! privately by their owner (exclusive mode), then suddenly read by many
//! processors — a burst of exclusive-mode break requests aimed at one node,
//! which collapses the one-level protocols under clustering and which the
//! two-level protocols absorb through hardware coherence.
//!
//! Blocks are stored contiguously (block-major), the SPLASH-2 layout that
//! avoids false sharing between blocks.

use cashmere_core::{Cluster, Proc, RunSpec, SyncSpec};

use crate::util::{ArrF64, XorShift};
use crate::{AppOutcome, Benchmark, Scale};

/// The LU benchmark instance.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Matrix dimension (must be a multiple of `block`).
    pub n: usize,
    /// Block edge size.
    pub block: usize,
    /// Extra compute charged per fused multiply-add (ns).
    pub flop_ns: u64,
}

impl Lu {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                n: 24,
                block: 8,
                flop_ns: 40,
            },
            Scale::Bench => Self {
                n: 192,
                block: 16,
                flop_ns: 9_000,
            },
        }
    }

    fn nb(&self) -> usize {
        self.n / self.block
    }

    /// Word offset of element (r, c) inside block (bi, bj), block-major.
    fn idx(&self, bi: usize, bj: usize, r: usize, c: usize) -> usize {
        let b = self.block;
        ((bi * self.nb() + bj) * b + r) * b + c
    }

    fn owner(&self, bi: usize, bj: usize, nprocs: usize) -> usize {
        (bi * self.nb() + bj) % nprocs
    }

    /// Factors the diagonal block `k` in place (unblocked LU, no pivoting).
    ///
    /// The row updates below go through the run accessors: the same
    /// accesses as the word-at-a-time loop (reads of rows `i` and `r`,
    /// writes of row `i` — same counts, same pages, same faults, same
    /// per-element arithmetic), grouped into three contiguous runs.
    fn factor_diag(&self, p: &mut Proc, a: ArrF64, k: usize) {
        let b = self.block;
        let mut row_i = vec![0.0f64; b];
        let mut row_r = vec![0.0f64; b];
        for r in 0..b {
            let pivot = a.get(p, self.idx(k, k, r, r));
            let len = b - r - 1;
            for i in (r + 1)..b {
                let l = a.get(p, self.idx(k, k, i, r)) / pivot;
                a.set(p, self.idx(k, k, i, r), l);
                a.get_run(p, self.idx(k, k, i, r + 1), &mut row_i[..len]);
                a.get_run(p, self.idx(k, k, r, r + 1), &mut row_r[..len]);
                for j in 0..len {
                    row_i[j] -= l * row_r[j];
                }
                a.set_run(p, self.idx(k, k, i, r + 1), &row_i[..len]);
                p.compute(self.flop_ns * (b - r) as u64);
            }
        }
    }

    /// Updates a row-perimeter block (k, bj): solve L(k,k) · X = A(k, bj).
    fn update_row_block(&self, p: &mut Proc, a: ArrF64, k: usize, bj: usize) {
        let b = self.block;
        let mut row_i = vec![0.0f64; b];
        let mut row_r = vec![0.0f64; b];
        for r in 0..b {
            for i in (r + 1)..b {
                let l = a.get(p, self.idx(k, k, i, r));
                a.get_run(p, self.idx(k, bj, i, 0), &mut row_i);
                a.get_run(p, self.idx(k, bj, r, 0), &mut row_r);
                for j in 0..b {
                    row_i[j] -= l * row_r[j];
                }
                a.set_run(p, self.idx(k, bj, i, 0), &row_i);
                p.compute(self.flop_ns * b as u64);
            }
        }
    }

    /// Updates a column-perimeter block (bi, k): X · U(k,k) = A(bi, k).
    fn update_col_block(&self, p: &mut Proc, a: ArrF64, k: usize, bi: usize) {
        let b = self.block;
        let mut row_i = vec![0.0f64; b];
        let mut row_r = vec![0.0f64; b];
        for r in 0..b {
            let pivot = a.get(p, self.idx(k, k, r, r));
            let len = b - r - 1;
            for i in 0..b {
                let l = a.get(p, self.idx(bi, k, i, r)) / pivot;
                a.set(p, self.idx(bi, k, i, r), l);
                a.get_run(p, self.idx(bi, k, i, r + 1), &mut row_i[..len]);
                a.get_run(p, self.idx(k, k, r, r + 1), &mut row_r[..len]);
                for j in 0..len {
                    row_i[j] -= l * row_r[j];
                }
                a.set_run(p, self.idx(bi, k, i, r + 1), &row_i[..len]);
                p.compute(self.flop_ns * b as u64);
            }
        }
    }

    /// Interior update: A(bi, bj) -= A(bi, k) · A(k, bj).
    fn update_interior(&self, p: &mut Proc, a: ArrF64, k: usize, bi: usize, bj: usize) {
        let b = self.block;
        let mut row_i = vec![0.0f64; b];
        let mut row_r = vec![0.0f64; b];
        for i in 0..b {
            for r in 0..b {
                let l = a.get(p, self.idx(bi, k, i, r));
                if l != 0.0 {
                    a.get_run(p, self.idx(bi, bj, i, 0), &mut row_i);
                    a.get_run(p, self.idx(k, bj, r, 0), &mut row_r);
                    for j in 0..b {
                        row_i[j] -= l * row_r[j];
                    }
                    a.set_run(p, self.idx(bi, bj, i, 0), &row_i);
                }
                p.compute(self.flop_ns * b as u64);
            }
        }
    }
}

impl Benchmark for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn size_description(&self) -> String {
        format!(
            "{}x{} matrix, {}x{} blocks",
            self.n, self.n, self.block, self.block
        )
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let words = self.n * self.n;
        cfg.heap_pages = words.div_ceil(cashmere_core::PAGE_WORDS) + 4;
        cfg.sync = SyncSpec {
            locks: 1,
            barriers: 3,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 8;
        cfg.poll_fraction = 0.03;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        assert_eq!(
            self.n % self.block,
            0,
            "n must be a multiple of the block size"
        );
        let a = ArrF64::alloc(cluster, self.n * self.n);
        // A diagonally dominant matrix keeps unpivoted LU stable.
        let mut rng = XorShift::new(0xB10C);
        let nb = self.nb();
        for bi in 0..nb {
            for bj in 0..nb {
                for r in 0..self.block {
                    for c in 0..self.block {
                        let diag = bi == bj && r == c;
                        let v = rng.unit_f64() + if diag { self.n as f64 } else { 0.0 };
                        a.seed(cluster, self.idx(bi, bj, r, c), v);
                    }
                }
            }
        }

        let report = cluster.run(|p| {
            let np = p.nprocs();
            let me = p.id();
            for k in 0..nb {
                if self.owner(k, k, np) == me {
                    self.factor_diag(p, a, k);
                }
                p.barrier(0);
                for bj in (k + 1)..nb {
                    if self.owner(k, bj, np) == me {
                        self.update_row_block(p, a, k, bj);
                    }
                    if self.owner(bj, k, np) == me {
                        self.update_col_block(p, a, k, bj);
                    }
                }
                p.barrier(1);
                for bi in (k + 1)..nb {
                    for bj in (k + 1)..nb {
                        if self.owner(bi, bj, np) == me {
                            self.update_interior(p, a, k, bi, bj);
                        }
                    }
                }
                p.barrier(2);
            }
        });
        AppOutcome {
            report,
            checksum: a.checksum(cluster),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn lu_matches_sequential_under_every_protocol() {
        let app = Lu::new(Scale::Test);
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
    fn lu_factorization_reconstructs_the_matrix() {
        // Factor a small matrix sequentially and verify L·U ≈ A.
        let app = Lu {
            n: 16,
            block: 8,
            flop_ns: 0,
        };
        let mut cfg = RunSpec::new(Topology::new(1, 1), ProtocolKind::TwoLevel);
        app.configure(&mut cfg);
        let mut cluster = Cluster::new(cfg);

        // Build the original matrix exactly as execute() seeds it.
        let mut rng = XorShift::new(0xB10C);
        let n = app.n;
        let nb = app.nb();
        let mut orig = vec![0.0f64; n * n];
        let to_rc =
            |bi: usize, bj: usize, r: usize, c: usize| (bi * app.block + r, bj * app.block + c);
        let a = ArrF64::alloc(&mut cluster, n * n);
        for bi in 0..nb {
            for bj in 0..nb {
                for r in 0..app.block {
                    for c in 0..app.block {
                        let diag = bi == bj && r == c;
                        let v = rng.unit_f64() + if diag { n as f64 } else { 0.0 };
                        a.seed(&cluster, app.idx(bi, bj, r, c), v);
                        let (rr, cc) = to_rc(bi, bj, r, c);
                        orig[rr * n + cc] = v;
                    }
                }
            }
        }
        cluster.run(|p| {
            for k in 0..nb {
                if p.id() == 0 {
                    app.factor_diag(p, a, k);
                    for bj in (k + 1)..nb {
                        app.update_row_block(p, a, k, bj);
                        app.update_col_block(p, a, k, bj);
                    }
                    for bi in (k + 1)..nb {
                        for bj in (k + 1)..nb {
                            app.update_interior(p, a, k, bi, bj);
                        }
                    }
                }
            }
        });
        // Read back L and U and multiply.
        let mut lu = vec![0.0f64; n * n];
        for bi in 0..nb {
            for bj in 0..nb {
                for r in 0..app.block {
                    for c in 0..app.block {
                        let (rr, cc) = to_rc(bi, bj, r, c);
                        lu[rr * n + cc] = a.read_back(&cluster, app.idx(bi, bj, r, c));
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                // L has implicit unit diagonal; U is the upper triangle.
                let mut acc = 0.0;
                for k in 0..n {
                    let l = if k < i {
                        lu[i * n + k]
                    } else if k == i {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if k <= j { lu[k * n + j] } else { 0.0 };
                    acc += l * u;
                }
                assert!(
                    (acc - orig[i * n + j]).abs() < 1e-6 * n as f64,
                    "L·U mismatch at ({i},{j}): {acc} vs {}",
                    orig[i * n + j]
                );
            }
        }
    }
}
