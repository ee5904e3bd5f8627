//! Model test for the trace recorder's sequencing (`core::trace`): the
//! sequence number is drawn under the lock that pushes the event, so the
//! buffer is in seq order by construction. The scenario body lives in
//! `src/model_scenarios.rs`; the mutant draws the number in a critical
//! section of its own, and must be found within the default budget and
//! replay deterministically from its printed seed.

use cashmere_core::model_scenarios as sc;
use cashmere_model::{expect_violation, explore, replay, ModelConfig};

#[test]
fn model_trace_seq_is_lock_order() {
    let explored = explore("trace-seq", || sc::trace_seq_order(2, 2, false));
    assert!(explored.schedules > 0);
    assert_eq!(explored.truncated, 0);
}

#[test]
fn model_trace_mutant_seq_before_lock_is_caught() {
    let cfg = ModelConfig::default();
    let v = expect_violation("trace-seq-mutant-seq-before-lock", &cfg, || {
        sc::trace_seq_order(2, 2, true);
    });
    assert!(
        v.message.contains("out of seq order"),
        "unexpected failure mode: {}",
        v.message
    );
    let again = replay(&cfg, v.seed, v.bound, || sc::trace_seq_order(2, 2, true))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(again.message, v.message);
    assert_eq!(again.steps, v.steps);
}
