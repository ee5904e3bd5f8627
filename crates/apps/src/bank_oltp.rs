//! BankOltp: OLTP-style transactional transfers over DSM (DESIGN.md §13).
//!
//! Grows the `bank_teller` example's two-lock transfer into a benchmarked
//! app: a shared ledger of `accounts` balances, a trace of Zipf-skewed
//! transfer requests (source = `key`, destination = `key2`, both drawn
//! from the same popularity distribution so hot accounts contend), and
//! per-account locks taken in ascending index order so cross-transfer
//! deadlock is impossible.
//!
//! A transfer is *conditional*: it moves `amount` only when the source
//! balance covers it. That makes individual balances schedule-dependent —
//! but the ledger total is conserved by construction, and that invariant
//! is **audited at every barrier**: the trace is split into rounds, each
//! round ends with a quiescent window (barrier, full-ledger sweep by every
//! processor asserting conservation, barrier) before the next round's
//! writes begin. The app checksum is the final total, so the cross-run
//! baseline comparison in the bench harnesses re-checks conservation under
//! every protocol, topology, and fault schedule.

use cashmere_core::{Cluster, RunSpec, SyncSpec};
use cashmere_workload::{KeyMap, Trace, WorkloadSpec};

use crate::util::{chunk_range, ArrU64};
use crate::{AppOutcome, Benchmark, Scale};

/// The OLTP bank benchmark instance.
#[derive(Debug, Clone)]
pub struct BankOltp {
    /// Trace generator parameters; `keys` is the account count and every
    /// op is a transfer (`key` → `key2`), so the get/put mix is unused.
    pub spec: WorkloadSpec,
    /// Starting balance of every account.
    pub initial_balance: u64,
    /// Rounds the trace is split into; conservation is audited in a
    /// quiescent barrier window after each round.
    pub rounds: usize,
    /// Transaction compute charged per transfer (ns).
    pub service_ns: u64,
}

impl BankOltp {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                spec: WorkloadSpec {
                    keys: 256,
                    theta: 0.9,
                    ops: 4_000,
                    get_frac: 0.0,
                    put_frac: 1.0,
                    mean_interarrival_ns: 3_000,
                    key_map: KeyMap::Direct,
                    seed: 0x0BA2_0172,
                },
                initial_balance: 1_000,
                rounds: 4,
                service_ns: 2_000,
            },
            Scale::Bench => Self {
                spec: WorkloadSpec {
                    keys: 1_024,
                    theta: 0.9,
                    ops: 16_000,
                    get_frac: 0.0,
                    put_frac: 1.0,
                    mean_interarrival_ns: 2_000,
                    key_map: KeyMap::Direct,
                    seed: 0x0BA2_0172,
                },
                initial_balance: 1_000,
                rounds: 8,
                service_ns: 2_500,
            },
        }
    }

    /// The generated transfer trace (deterministic in the spec).
    pub fn trace(&self) -> Trace {
        Trace::generate(&self.spec)
    }

    /// The conserved ledger total — the app checksum under any schedule.
    pub fn expected_total(&self) -> u64 {
        self.spec.keys as u64 * self.initial_balance
    }
}

/// Transfer amount carried by an op's payload digest (nonzero so every
/// applied transfer moves money).
fn amount_of(val: u64) -> u64 {
    1 + val % 64
}

impl Benchmark for BankOltp {
    fn name(&self) -> &'static str {
        "Bank"
    }

    fn size_description(&self) -> String {
        format!(
            "{} accounts, {} transfers, {} rounds, theta {}",
            self.spec.keys, self.spec.ops, self.rounds, self.spec.theta
        )
    }

    fn timing_reps(&self) -> usize {
        3 // lock interleavings make the timing nondeterministic
    }

    fn configure(&self, cfg: &mut RunSpec) {
        cfg.heap_pages = self.spec.keys.div_ceil(cashmere_core::PAGE_WORDS) + 2;
        cfg.sync = SyncSpec {
            locks: self.spec.keys, // one per account
            barriers: 2 * self.rounds + 1,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 4;
        cfg.poll_fraction = 0.05;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let accounts = self.spec.keys;
        let rounds = self.rounds;
        let service_ns = self.service_ns;
        let initial = self.initial_balance;
        let total = self.expected_total();
        let trace = self.trace();
        let ledger = ArrU64::alloc(cluster, accounts);
        for a in 0..accounts {
            ledger.seed(cluster, a, initial);
        }

        let report = cluster.run(|p| {
            let np = p.nprocs();
            let id = p.id();
            p.barrier(0);
            let t0 = p.now();
            for r in 0..rounds {
                let (lo, hi) = chunk_range(trace.ops.len(), rounds, r);
                for (i, op) in trace.ops[lo..hi].iter().enumerate() {
                    if (lo + i) % np != id {
                        continue;
                    }
                    // Open-loop arrival charging (see kv_service).
                    let target = t0 + op.at;
                    let now = p.now();
                    if target > now {
                        p.compute(target - now);
                    }
                    p.compute(service_ns);

                    let (src, dst) = (op.key as usize, op.key2 as usize);
                    // Ascending lock order rules out deadlock.
                    let (first, second) = (src.min(dst), src.max(dst));
                    p.lock(first);
                    p.lock(second);
                    let amount = amount_of(op.val);
                    let bal = ledger.get(p, src);
                    if bal >= amount {
                        ledger.set(p, src, bal - amount);
                        let d = ledger.get(p, dst);
                        ledger.set(p, dst, d + amount);
                    }
                    p.unlock(second);
                    p.unlock(first);
                    // Per-transaction sojourn vs the open-loop arrival
                    // stamp (no-op when obs is off).
                    p.record_sojourn(p.now() - target);
                }
                // Quiescent audit window: no writes happen between these
                // two barriers, so an unlocked full-ledger sweep is exact.
                p.barrier(2 * r + 1);
                let mut sum = 0u64;
                let mut buf = [0u64; 256];
                let mut a = 0;
                while a < accounts {
                    let n = (accounts - a).min(buf.len());
                    ledger.get_run(p, a, &mut buf[..n]);
                    for &b in &buf[..n] {
                        sum += b;
                    }
                    a += n;
                }
                assert_eq!(
                    sum, total,
                    "ledger total diverged at round {r} barrier (proc {id})"
                );
                p.barrier(2 * r + 2);
            }
        });

        let mut final_total = 0u64;
        for a in 0..accounts {
            final_total += ledger.read_back(cluster, a);
        }
        AppOutcome {
            report,
            checksum: final_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn ledger_is_conserved_under_every_protocol() {
        let app = BankOltp::new(Scale::Test);
        for protocol in ProtocolKind::PAPER_FOUR {
            let out = run_app(&app, &RunSpec::new(Topology::new(2, 2), protocol)).0;
            assert_eq!(out.checksum, app.expected_total(), "{}", protocol.label());
        }
    }

    #[test]
    fn sequential_run_conserves_and_moves_money() {
        let app = BankOltp::new(Scale::Test);
        let out = run_app(
            &app,
            &RunSpec::new(Topology::new(1, 1), ProtocolKind::OneLevelDiff),
        )
        .0;
        assert_eq!(out.checksum, app.expected_total());
    }

    #[test]
    fn transfers_actually_move_balances() {
        // Sanity on the host side: replay the trace sequentially and check
        // some account ends away from its initial balance.
        let app = BankOltp::new(Scale::Test);
        let trace = app.trace();
        let mut ledger = vec![app.initial_balance; app.spec.keys];
        for op in &trace.ops {
            let (s, d) = (op.key as usize, op.key2 as usize);
            let amount = amount_of(op.val);
            if ledger[s] >= amount {
                ledger[s] -= amount;
                ledger[d] += amount;
            }
        }
        assert!(ledger.iter().any(|&b| b != app.initial_balance));
        assert_eq!(ledger.iter().sum::<u64>(), app.expected_total());
    }
}
