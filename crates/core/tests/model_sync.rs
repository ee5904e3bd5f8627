//! Model test for the carriers' one wait helper (`sync::wait_until`): a
//! processor sleeping on a carrier's condvar must never miss the release
//! it waits for. The scenario body lives in `src/model_scenarios.rs`; the
//! mutant tests the predicate outside the mutex the wait releases, and must
//! be found within the default budget and replay deterministically from
//! its printed seed.

use cashmere_core::model_scenarios as sc;
use cashmere_model::{expect_violation, explore, replay, ModelConfig};

#[test]
fn model_carrier_wait_never_loses_a_wakeup() {
    let explored = explore("carrier-wait", || sc::carrier_wait(false));
    // No spin anywhere: every schedule runs to completion.
    assert!(explored.schedules > 0);
    assert_eq!(explored.truncated, 0);
}

#[test]
fn model_carrier_wait_mutant_predicate_outside_mutex_is_caught() {
    let cfg = ModelConfig::default();
    let v = expect_violation("carrier-wait-mutant-predicate-outside-mutex", &cfg, || {
        sc::carrier_wait(true);
    });
    assert!(
        v.message.contains("deadlock") && v.message.contains("CondWake"),
        "unexpected failure mode: {}",
        v.message
    );
    let again = replay(&cfg, v.seed, v.bound, || sc::carrier_wait(true))
        .expect_err("failing schedule must replay deterministically");
    // The report names the condvar by address, which a fresh flag does not
    // share; the blocked operations and the step count are the schedule's.
    assert!(again.message.contains("CondWake"), "{}", again.message);
    assert_eq!(again.steps, v.steps);
}
