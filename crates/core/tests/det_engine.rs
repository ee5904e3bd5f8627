//! Determinism of the parallel virtual-time engine (DESIGN.md §15):
//! identical `Report` bytes across repeated runs and across host worker
//! counts, on a workload exercising every lookahead-barrier kind (faults,
//! releases/acquires, locks, barriers, flags, bus settles).

use cashmere_core::{Cluster, ProtocolKind, Report, RunSpec, SyncSpec, Topology};

/// A small mixed workload: per-proc strided writes (faults + twins), a
/// lock-protected accumulator (lock gates), barrier phases (rendezvous
/// gates), and a flag hand-off (flag gates).
fn mixed_workload(cfg: RunSpec) -> (Report, Vec<u64>) {
    let mut cluster = Cluster::new(cfg);
    let data = cluster.alloc_page_aligned(4 * 512);
    let accum = cluster.alloc_page_aligned(8);
    let report = cluster.run(|p| {
        let n = p.nprocs();
        p.barrier(0);
        for round in 0..3u64 {
            for i in 0..128 {
                let a = data + (p.id() + i * n) % (4 * 512);
                let v = p.read_u64(a);
                p.write_u64(a, v + round + p.id() as u64 + 1);
            }
            p.compute(20_000);
            p.lock(0);
            let v = p.read_u64(accum);
            p.write_u64(accum, v + p.id() as u64 + round);
            p.unlock(0);
            p.barrier(1);
        }
        if p.id() == 0 {
            p.flag_set(0);
        } else {
            p.flag_wait(0);
        }
        p.barrier(0);
    });
    let mut words = vec![0u64; 64];
    cluster.read_back_run(data, &mut words);
    words.push(cluster.read_u64(accum));
    (report, words)
}

fn cfg_with_workers(protocol: ProtocolKind, workers: usize) -> RunSpec {
    RunSpec::new(Topology::new(2, 2), protocol)
        .with_sync(SyncSpec {
            locks: 1,
            barriers: 2,
            flags: 1,
        })
        .with_det_parallel(workers)
}

#[test]
fn report_bytes_identical_across_worker_counts() {
    for protocol in [
        ProtocolKind::TwoLevel,
        ProtocolKind::TwoLevelShootdown,
        ProtocolKind::OneLevelDiff,
        ProtocolKind::OneLevelWrite,
    ] {
        let (base_report, base_words) = mixed_workload(cfg_with_workers(protocol, 1));
        let base_json = base_report.to_json();
        for workers in [1, 2, 8] {
            let (report, words) = mixed_workload(cfg_with_workers(protocol, workers));
            assert_eq!(
                report.to_json(),
                base_json,
                "{protocol:?}: report bytes diverge at {workers} workers"
            );
            assert_eq!(
                words, base_words,
                "{protocol:?}: memory contents diverge at {workers} workers"
            );
        }
    }
}

#[test]
fn det_single_worker_matches_repeat_runs() {
    let (a, wa) = mixed_workload(cfg_with_workers(ProtocolKind::TwoLevel, 3));
    let (b, wb) = mixed_workload(cfg_with_workers(ProtocolKind::TwoLevel, 3));
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(wa, wb);
}
