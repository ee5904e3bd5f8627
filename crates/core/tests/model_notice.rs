//! Model tests for the write-notice lists (DESIGN.md §11): the striped
//! per-processor list's exactly-once insert + ticket-ordered drain, the
//! notice board's per-destination queue and count, and the NLE list's
//! pending flag run under the bounded interleaving explorer, sharing their
//! scenario bodies with the OS-thread stress tests in `src/write_notice.rs`.
//! Each mutation battery reintroduces a wrong ordering and asserts the
//! explorer finds a violating schedule within the default budget and
//! replays it deterministically from the printed seed.

use cashmere_core::model_scenarios as sc;
use cashmere_model::{expect_violation, explore, replay, try_explore, ModelConfig};

#[test]
fn model_notice_striped_posts_deliver_exactly_once() {
    let explored = explore("notice-striped-exactly-once", || {
        sc::striped_notice_exactly_once(2, 2, 2);
    });
    // Golden budget: every schedule in the default budget runs to
    // completion — posts and drains are loop-free, so truncation would
    // mean a structural regression.
    assert_eq!(explored.truncated, 0, "notice schedules must not truncate");
    assert!(explored.schedules > 0);
}

#[test]
fn model_notice_contended_insert_exactly_once() {
    let explored = explore("notice-contended-exactly-once", || {
        sc::contended_insert_exactly_once(false);
    });
    assert_eq!(
        explored.truncated, 0,
        "contended schedules must not truncate"
    );
}

#[test]
fn model_notice_mutant_claim_outside_stripe_lock_is_caught() {
    let cfg = ModelConfig::default();
    let v = expect_violation("notice-mutant-claim-outside-lock", &cfg, || {
        sc::contended_insert_exactly_once(true);
    });
    assert!(
        v.message.contains("duplicate") || v.message.contains("exactly once"),
        "unexpected failure mode: {}",
        v.message
    );
    // The printed (seed, bound) must reproduce the exact failure.
    let again = replay(&cfg, v.seed, v.bound, || {
        sc::contended_insert_exactly_once(true);
    })
    .expect_err("failing schedule must replay deterministically");
    assert_eq!(again.message, v.message);
    assert_eq!(again.steps, v.steps);
}

/// The budget the queue and flag scenarios run under: the default one with
/// the partial-order skip off. The skip looks only at each thread's *next*
/// operation, and the windows these scenarios are about lie between two
/// operations of one thread on different locations (a post's count-in and
/// its push; a push and its flag store), with the other thread's next
/// operation on a third — a pair the skip calls commuting and never splits.
fn every_window() -> ModelConfig {
    ModelConfig {
        por: false,
        ..ModelConfig::default()
    }
}

/// Explores `scenario` and asserts no schedule truncated (posts, pushes and
/// drains are loop-free).
fn explores_clean(name: &str, scenario: impl Fn() + Sync) {
    let explored =
        try_explore(name, &every_window(), scenario).unwrap_or_else(|v| panic!("{name}: {v}"));
    assert_eq!(explored.truncated, 0, "{name}: schedules must not truncate");
    assert!(explored.schedules > 0);
}

/// Asserts the mutant `scenario` fails within the default schedule budget
/// with a message containing one of `expect`, and that the printed (seed,
/// bound) replays the exact failure.
fn mutant_is_caught_and_replays(name: &str, expect: &[&str], scenario: impl Fn() + Sync) {
    let cfg = every_window();
    let v = expect_violation(name, &cfg, &scenario);
    assert!(
        expect.iter().any(|e| v.message.contains(e)),
        "unexpected failure mode: {}",
        v.message
    );
    let again = replay(&cfg, v.seed, v.bound, &scenario)
        .expect_err("failing schedule must replay deterministically");
    assert_eq!(again.message, v.message);
    assert_eq!(again.steps, v.steps);
}

#[test]
fn model_notice_queue_delivers_exactly_once_and_strands_nothing() {
    explores_clean("notice-queue-exactly-once", || {
        sc::notice_queue_exactly_once(2, 2, 2, 2, false);
    });
}

#[test]
fn model_notice_post_mid_drain_is_delivered_once() {
    // One sender, one drain under way, one drain after: the second post can
    // land anywhere inside the first drain, including between its pops and
    // its count-out. It must come out exactly once — of that drain or of
    // the next.
    explores_clean("notice-queue-post-mid-drain", || {
        sc::notice_queue_exactly_once(1, 1, 2, 1, false);
    });
}

#[test]
fn model_notice_siblings_posting_as_one_sender_keep_the_count_sound() {
    // Two processors of one sender node post into the one queue: each
    // counts itself in, and `is_empty` must stay false until both notices
    // have been popped.
    explores_clean("notice-queue-sibling-posters", || {
        sc::notice_queue_exactly_once(2, 1, 1, 2, false);
    });
}

#[test]
fn model_notice_mutant_count_out_before_pop_is_caught() {
    mutant_is_caught_and_replays(
        "notice-mutant-count-out-before-pop",
        &["stranded", "exactly once", "is_empty held"],
        || sc::notice_queue_exactly_once(1, 1, 2, 1, true),
    );
}

#[test]
fn model_nle_pending_flag_strands_nothing() {
    explores_clean("nle-pending-flag", || {
        sc::nle_pending_flag(2, 2, 2, false);
    });
}

#[test]
fn model_nle_mutant_flag_before_push_is_caught() {
    mutant_is_caught_and_replays(
        "nle-mutant-flag-before-push",
        &["stranded", "exactly once"],
        || sc::nle_pending_flag(1, 2, 1, true),
    );
}
