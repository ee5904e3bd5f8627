//! Model tests for the deterministic parallel engine's wakeups (DESIGN.md
//! §15). The scenario bodies live in `src/model_scenarios.rs`.
//!
//! * **Hand-off** (what the scheduler runs on): a processor sleeping on
//!   its own wake slot must never miss the one wake addressed to it, nor
//!   run on a stale park token. The mutant unparks before raising the flag.
//! * **Horizon** (kept for the benchmark-pinned `HorizonClock::wait_past`):
//!   a sleeper on the horizon must never miss the advance. The mutant
//!   broadcasts before the horizon bump.
//!
//! Each mutant must be found within the default budget and replay
//! deterministically from its printed seed.

use cashmere_core::model_scenarios as sc;
use cashmere_model::{expect_violation, explore, replay, ModelConfig};

#[test]
fn model_handoff_wakeup_never_lost() {
    let explored = explore("handoff-wakeup", || sc::handoff_wakeup(2, false));
    // No spin anywhere in the protocol: every schedule runs to completion.
    assert!(explored.schedules > 0);
    assert_eq!(explored.truncated, 0);
}

#[test]
fn model_handoff_mutant_unpark_before_flag_is_caught() {
    let cfg = ModelConfig::default();
    let v = expect_violation("handoff-mutant-unpark-first", &cfg, || {
        sc::handoff_wakeup(2, true);
    });
    assert!(
        v.message.contains("deadlock") && v.message.contains("Park"),
        "unexpected failure mode: {}",
        v.message
    );
    let again = replay(&cfg, v.seed, v.bound, || sc::handoff_wakeup(2, true))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(again.message, v.message);
    assert_eq!(again.steps, v.steps);
}

#[test]
fn model_lookahead_wakeup_never_lost() {
    let explored = explore("lookahead-wakeup", || sc::lookahead_wakeup(false));
    // The sleep closure is a yielding spin, so adversarial schedules that
    // starve the advancer get truncated at the step bound — expected;
    // violations are not (explore panics on any).
    assert!(explored.schedules > 0);
}

#[test]
fn model_lookahead_mutant_wake_before_horizon_is_caught() {
    let cfg = ModelConfig::default();
    let v = expect_violation("lookahead-mutant-wake-first", &cfg, || {
        sc::lookahead_wakeup(true);
    });
    assert!(
        v.message.contains("lost wakeup"),
        "unexpected failure mode: {}",
        v.message
    );
    let again = replay(&cfg, v.seed, v.bound, || sc::lookahead_wakeup(true))
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(again.message, v.message);
    assert_eq!(again.steps, v.steps);
}
