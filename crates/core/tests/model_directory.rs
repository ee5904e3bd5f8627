//! Model tests for the lock-free directory read fast path (DESIGN.md §11):
//! a reader's single atomic load races `write_my_word`'s single store into
//! the one host array, sharing its scenario body with the OS-thread yield
//! test in `src/directory.rs`. The mutation battery tears the store into
//! two and asserts the explorer observes the phantom word within the
//! default budget and replays the schedule deterministically.

use cashmere_core::model_scenarios as sc;
use cashmere_model::{expect_violation, explore, replay, ModelConfig};

#[test]
fn model_directory_reads_never_observe_torn_or_phantom_words() {
    let explored = explore("directory-single-writer-reads", || {
        sc::directory_single_writer_reads(2, 4, false);
    });
    // Golden budget: the reader is capped at 4 polls, so every schedule
    // terminates well inside the step budget.
    assert_eq!(
        explored.truncated, 0,
        "directory schedules must not truncate"
    );
    assert!(explored.schedules > 0);
}

#[test]
fn model_sparse_reads_never_regress_and_settle_on_final_claim() {
    let explored = explore("sparse-directory-read-vs-update", || {
        sc::sparse_directory_read_vs_update(2, 4, false);
    });
    assert_eq!(
        explored.truncated, 0,
        "sparse directory schedules must not truncate"
    );
    assert!(explored.schedules > 0);
}

#[test]
fn model_sparse_mutant_version_before_data_is_caught() {
    // The stale-cache window needs three context switches (bump → reader
    // refill → data writes → reader cache hit), which sits deeper in the
    // schedule space than the default 256-schedule budget reaches.
    let cfg = ModelConfig {
        schedules: 4096,
        ..ModelConfig::default()
    };
    let v = expect_violation("sparse-mutant-version-before-data", &cfg, || {
        sc::sparse_directory_read_vs_update(2, 4, true);
    });
    assert!(
        v.message.contains("final published claim"),
        "unexpected failure mode: {}",
        v.message
    );
    let again = replay(&cfg, v.seed, v.bound, || {
        sc::sparse_directory_read_vs_update(2, 4, true);
    })
    .expect_err("failing schedule must replay deterministically");
    assert_eq!(again.message, v.message);
    assert_eq!(again.steps, v.steps);
}

#[test]
fn model_directory_mutant_torn_store_is_caught() {
    let cfg = ModelConfig::default();
    let v = expect_violation("directory-mutant-torn-store", &cfg, || {
        sc::directory_single_writer_reads(2, 4, true);
    });
    assert!(
        v.message.contains("never published"),
        "unexpected failure mode: {}",
        v.message
    );
    let again = replay(&cfg, v.seed, v.bound, || {
        sc::directory_single_writer_reads(2, 4, true);
    })
    .expect_err("failing schedule must replay deterministically");
    assert_eq!(again.message, v.message);
    assert_eq!(again.steps, v.steps);
}
