//! Conformance battery: every [`Transport`] implementation must pass every
//! test here, for all of [`Backend::ALL`]. The contract under test:
//!
//! * **Write visibility** — data written through any remote-write entry
//!   point is observable at every attached receiver.
//! * **Charge determinism** — the same scripted op sequence on a fresh
//!   transport produces the same completion times, run to run.
//! * **Fault interposition** — an injected fault plan perturbs every
//!   backend's schedule (and its counters fire), including the page-fetch
//!   data path.
//! * **Same-seed replay identity** — probabilistic fault plans with equal
//!   seeds yield bit-equal schedules.
//! * **Fetch shape** — Memory Channel fetches are request/reply and the
//!   data leg prices exactly like the home's reply write; RDMA/CXL fetches
//!   are direct reads priced as wire time plus the read latency.

use std::sync::Arc;

use cashmere_faults::{FaultKind, FaultPlan, FaultRule};
use cashmere_memchan::TransportConfig;
use cashmere_obs::LinkMetrics;
use cashmere_sim::{Backend, FetchShape, Nanos};
use cashmere_transport::{build_transport, Transport};

/// Two endpoints on two links, no faults.
fn clean(backend: Backend) -> Arc<dyn Transport> {
    build_transport(TransportConfig::new(vec![0, 1], 2).with_backend(backend))
}

/// Two endpoints on two links with a shared fault plan handle.
fn faulty(backend: Backend, plan: &Arc<FaultPlan>) -> Arc<dyn Transport> {
    build_transport(
        TransportConfig::new(vec![0, 1], 2)
            .with_backend(backend)
            .with_fault_plan(Some(Arc::clone(plan))),
    )
}

/// A deterministic mixed-op script; returns every completion time so
/// callers can compare whole schedules.
fn scripted_schedule(t: &dyn Transport) -> Vec<Nanos> {
    let r = t.create_region(64, false);
    t.attach_rx(r, 0);
    t.attach_rx(r, 1);
    let mut now = 0;
    let mut times = Vec::new();
    for i in 0..8u64 {
        now = t.write(r, 0, (i % 64) as usize, 0x1000 + i, now);
        times.push(now);
        now = t.write_runs(r, 1, &[(30, &[i, i + 7])], now);
        times.push(now);
        now = t.write_tree(r, 0, 5, i, 4, now);
        times.push(now);
        now = t.charge_link(0, 512 + i, now);
        times.push(now);
        now = t.charge_tree(0, &[1], 4, 96, now);
        times.push(now);
        now = t.fetch_data(1, 8192, now);
        times.push(now);
    }
    times
}

#[test]
fn reports_its_fetch_shape_and_cost_model() {
    for b in Backend::ALL {
        let t = clean(b);
        assert_eq!(t.fetch_shape(), b.fetch_shape());
        let expect = b.cost_model();
        assert_eq!(t.cost().mc_write_latency, expect.mc_write_latency);
        assert_eq!(t.cost().remote_read_latency, expect.remote_read_latency);
    }
}

#[test]
fn writes_are_visible_at_every_attached_receiver() {
    for b in Backend::ALL {
        let t = clean(b);
        let r = t.create_region(64, true);
        t.attach_rx(r, 0);
        t.attach_rx(r, 1);

        let mut now = t.write(r, 0, 3, 0xBEEF, 0);
        now = t.write_runs(r, 1, &[(40, &[5, 6])], now);
        t.write_tree(r, 0, 50, 0xD0D0, 4, now);

        for e in [0usize, 1] {
            assert_eq!(t.read_local(r, e, 3), 0xBEEF, "{b:?} word @ {e}");
            assert_eq!(t.read_local(r, e, 41), 6, "{b:?} runs @ {e}");
            assert_eq!(t.read_local(r, e, 50), 0xD0D0, "{b:?} tree @ {e}");
        }
        let rx = t.rx_buffer(r, 1).expect("attached buffer");
        assert_eq!(rx.load(3), 0xBEEF);
    }
}

#[test]
fn charges_are_deterministic_across_fresh_instances() {
    for b in Backend::ALL {
        let first = scripted_schedule(clean(b).as_ref());
        let second = scripted_schedule(clean(b).as_ref());
        assert_eq!(first, second, "{b:?} schedule drifted");
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn fault_interposition_fires_on_every_backend() {
    for b in Backend::ALL {
        let plan = Arc::new(FaultPlan::new(7).with_rule(FaultRule::new(FaultKind::DropWrite, 1.0)));
        let t = faulty(b, &plan);
        let tc = clean(b);
        let r = t.create_region(8, false);
        let rc = tc.create_region(8, false);
        t.attach_rx(r, 1);
        tc.attach_rx(rc, 1);

        // Every drop costs one retransmission, so the faulty schedule runs
        // strictly behind the clean one — on the write path...
        assert!(
            t.write(r, 0, 0, 1, 0) > tc.write(rc, 0, 0, 1, 0),
            "{b:?} write"
        );
        // ...and on the page-fetch data path.
        assert!(
            t.fetch_data(1, 8192, 0) > tc.fetch_data(1, 8192, 0),
            "{b:?} fetch"
        );
        assert!(plan.stats().total() > 0, "{b:?} fault counters never fired");
    }
}

#[test]
fn same_seed_fault_plans_replay_identically() {
    for b in Backend::ALL {
        let mk = || {
            Arc::new(
                FaultPlan::new(0xCA5)
                    .with_rule(FaultRule::new(FaultKind::DropWrite, 0.4))
                    .with_rule(FaultRule::new(FaultKind::DelayWrite, 0.3)),
            )
        };
        let a = scripted_schedule(faulty(b, &mk()).as_ref());
        let c = scripted_schedule(faulty(b, &mk()).as_ref());
        assert_eq!(a, c, "{b:?} same-seed replay diverged");
        // And a different seed actually perturbs something, so the identity
        // above is not vacuous.
        let other = Arc::new(
            FaultPlan::new(0x0DD)
                .with_rule(FaultRule::new(FaultKind::DropWrite, 0.4))
                .with_rule(FaultRule::new(FaultKind::DelayWrite, 0.3)),
        );
        let d = scripted_schedule(faulty(b, &other).as_ref());
        assert_ne!(a, d, "{b:?} seed had no effect");
    }
}

#[test]
fn memory_channel_fetch_prices_like_the_reply_write() {
    let t = clean(Backend::MemoryChannel);
    let c = t.cost().clone();
    assert_eq!(t.fetch_shape(), FetchShape::RequestReply);
    // The reply is an ordinary one-sided remote write of the page.
    assert_eq!(
        t.fetch_data(1, 8192, 0),
        c.wire_ns(8192) + c.mc_write_latency
    );
}

#[test]
fn direct_read_backends_pull_pages_without_a_reply_message() {
    for b in [Backend::Rdma, Backend::Cxl] {
        let t = clean(b);
        let c = t.cost().clone();
        assert_eq!(t.fetch_shape(), FetchShape::DirectRead, "{b:?}");
        // A one-sided read: wire time plus the read-completion latency —
        // no write-latency constant, because no message is sent back.
        assert_eq!(
            t.fetch_data(1, 8192, 0),
            c.wire_ns(8192) + c.remote_read_latency,
            "{b:?}"
        );
    }
}

#[test]
fn link_metrics_observe_traffic_on_every_backend() {
    for b in Backend::ALL {
        let metrics = Arc::new(LinkMetrics::new(2));
        let t = build_transport(
            TransportConfig::new(vec![0, 1], 2)
                .with_backend(b)
                .with_metrics(Some(Arc::clone(&metrics))),
        );
        let r = t.create_region(8, false);
        t.attach_rx(r, 1);
        let now = t.write(r, 0, 0, 1, 0);
        t.fetch_data(1, 4096, now);
        let snap = metrics.snapshot();
        assert_eq!(snap[0].messages, 1, "{b:?} write uncounted");
        assert_eq!(snap[1].bytes, 4096, "{b:?} fetch bytes uncounted");
    }
}
