//! SOR: red-black successive over-relaxation (§3.2).
//!
//! "The red and black arrays are divided into roughly equal size bands of
//! rows, with each band assigned to a different processor. Communication
//! occurs across the boundaries between bands. Processors synchronize with
//! barriers." Paper size: 3072×4096 (50 MB); sequential time 195 s. The
//! computation-to-communication ratio is high, so the paper sees only
//! slight two-level gains — but also *negative clustering* from
//! capacity-miss traffic on the shared node bus, which the elevated
//! bus-bytes setting models.

use cashmere_core::{Cluster, Proc, RunSpec, SyncSpec};

use crate::util::{chunk_range, ArrF64};
use crate::{AppOutcome, Benchmark, Scale};

/// The SOR benchmark instance.
#[derive(Debug, Clone)]
pub struct Sor {
    /// Interior rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Full red+black iterations.
    pub iters: usize,
    /// Extra compute charged per element update (ns), tuning the
    /// computation-to-communication ratio toward the paper's regime.
    pub flop_ns: u64,
}

impl Sor {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                rows: 24,
                cols: 32,
                iters: 3,
                flop_ns: 150,
            },
            Scale::Bench => Self {
                rows: 192,
                cols: 128,
                iters: 10,
                flop_ns: 20_000,
            },
        }
    }

    fn grid_words(&self) -> usize {
        (self.rows + 2) * self.cols
    }

    fn update_band(&self, p: &mut Proc, grid: ArrF64, lo: usize, hi: usize, phase: usize) {
        let cols = self.cols;
        for i in (lo + 1)..(hi + 1) {
            for j in 1..cols - 1 {
                if (i + j) % 2 == phase {
                    let up = grid.get(p, (i - 1) * cols + j);
                    let down = grid.get(p, (i + 1) * cols + j);
                    let left = grid.get(p, i * cols + j - 1);
                    let right = grid.get(p, i * cols + j + 1);
                    grid.set(p, i * cols + j, 0.25 * (up + down + left + right));
                }
            }
            p.compute(self.flop_ns * (cols as u64) / 2);
        }
    }
}

impl Benchmark for Sor {
    fn name(&self) -> &'static str {
        "SOR"
    }

    fn size_description(&self) -> String {
        format!(
            "{}x{} grid, {} iterations",
            self.rows, self.cols, self.iters
        )
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let pages = self.grid_words().div_ceil(cashmere_core::PAGE_WORDS) + 4;
        cfg.heap_pages = pages;
        cfg.sync = SyncSpec {
            locks: 1,
            barriers: 2,
            flags: 0,
        };
        // Matrix sweep with a data set exceeding the second-level cache:
        // every access is capacity-miss traffic on the node bus (the
        // paper's negative-clustering driver for SOR).
        cfg.bus_bytes_per_access = 16;
        cfg.poll_fraction = 0.04;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let grid = ArrF64::alloc(cluster, self.grid_words());
        // Fixed boundary of 1.0 on the top and bottom rows; interior zero.
        for j in 0..self.cols {
            grid.seed(cluster, j, 1.0);
            grid.seed(cluster, (self.rows + 1) * self.cols + j, 1.0);
        }
        let rows = self.rows;
        let iters = self.iters;
        let report = cluster.run(|p| {
            let (lo, hi) = chunk_range(rows, p.nprocs(), p.id());
            for _ in 0..iters {
                for phase in 0..2 {
                    if lo < hi {
                        self.update_band(p, grid, lo, hi, phase);
                    }
                    p.barrier(phase);
                }
            }
        });
        AppOutcome {
            report,
            checksum: grid.checksum(cluster),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn sor_matches_sequential_under_every_protocol() {
        let app = Sor::new(Scale::Test);
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
    fn sor_converges_toward_boundary_value() {
        // After enough sweeps every interior cell moves off zero toward the
        // boundary value 1.0.
        let app = Sor {
            rows: 8,
            cols: 16,
            iters: 40,
            flop_ns: 0,
        };
        let mut cfg = RunSpec::new(Topology::new(2, 1), ProtocolKind::TwoLevel);
        app.configure(&mut cfg);
        let mut cluster = Cluster::new(cfg);
        let grid = ArrF64::alloc(&mut cluster, app.grid_words());
        for j in 0..app.cols {
            grid.seed(&cluster, j, 1.0);
            grid.seed(&cluster, (app.rows + 1) * app.cols + j, 1.0);
        }
        let rows = app.rows;
        cluster.run(|p| {
            let (lo, hi) = chunk_range(rows, p.nprocs(), p.id());
            for _ in 0..app.iters {
                for phase in 0..2 {
                    app.update_band(p, grid, lo, hi, phase);
                    p.barrier(phase);
                }
            }
        });
        let mid = grid.read_back(&cluster, (app.rows / 2) * app.cols + app.cols / 2);
        assert!(
            mid > 0.05 && mid < 1.0,
            "interior cell relaxed toward boundary: {mid}"
        );
    }
}
