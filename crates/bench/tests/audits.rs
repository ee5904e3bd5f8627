//! Whole-suite audits through the gate harness's executor.

use cashmere_apps::{suite, Scale};
use cashmere_bench::gate::{collect_cells, jobs_from_env, matrix, Done};
use cashmere_bench::paper_spec;
use cashmere_core::{DirectoryMode, ProtocolKind};

fn assert_audited_clean(cell: &Done) {
    assert!(
        !cell.trace.is_empty(),
        "{}: no trace recorded",
        cell.label()
    );
    assert!(
        cell.audit.is_clean(),
        "{}: {}",
        cell.label(),
        cell.audit.summary()
    );
}

/// The full application suite × all four paper protocols under four pool
/// workers with the protocol auditor on: every cell must audit clean. The
/// host-side concurrency work (twin pooling, striped write-notice posting,
/// lock-free directory reads, the worker pool itself) cannot corrupt
/// protocol state no matter how the host interleaves the cells
/// (DESIGN.md §10).
#[test]
fn full_sweep_audits_clean_under_the_parallel_executor() {
    let apps = suite(Scale::Test);
    let cells = matrix(&apps, &ProtocolKind::PAPER_FOUR, |p| {
        paper_spec(p, 4, 2).with_audit(true)
    });
    let done = collect_cells(&cells, 4);
    assert_eq!(done.len(), apps.len() * ProtocolKind::PAPER_FOUR.len());
    done.iter().for_each(assert_audited_clean);
}

/// The same matrix at 16:4 under `DirectoryMode::Sparse` (the home-sharded
/// directory, DESIGN.md §12): every cell must audit clean, and every
/// checksum must equal the same cell's under the default replicated
/// lock-free directory. The directory layout is a protocol-invisible
/// representation choice — the sparse fast path (invalidation-on-change
/// caches, CAS mask/claim transitions, home-shard updates) never changes
/// what an application computes or lets a stale mapping through the
/// auditor.
#[test]
fn sparse_directory_audits_clean_and_matches_replicated_checksums() {
    let apps = suite(Scale::Test);
    let sparse = matrix(&apps, &ProtocolKind::PAPER_FOUR, |p| {
        paper_spec(p, 16, 4)
            .with_directory(DirectoryMode::Sparse)
            .with_audit(true)
    });
    let replicated = matrix(&apps, &ProtocolKind::PAPER_FOUR, |p| paper_spec(p, 16, 4));
    assert_eq!(replicated[0].spec.directory, DirectoryMode::LockFree);
    let sparse = collect_cells(&sparse, jobs_from_env());
    let replicated = collect_cells(&replicated, jobs_from_env());
    assert_eq!(sparse.len(), apps.len() * ProtocolKind::PAPER_FOUR.len());
    for (s, r) in sparse.iter().zip(&replicated) {
        assert_eq!((s.app(), s.protocol()), (r.app(), r.protocol()));
        assert_audited_clean(s);
        assert_eq!(
            s.outcome.checksum,
            r.outcome.checksum,
            "{}: sparse directory changed the computed answer",
            s.label()
        );
    }
}
