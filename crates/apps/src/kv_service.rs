//! KvService: a sharded KV/cache service driven by a generated request
//! trace (DESIGN.md §13).
//!
//! The table is `keys × value_words` shared words plus one version word
//! per key. Requests come from a [`Trace`] generated up front on the host
//! (Zipfian key popularity, get/put/delete mix, open-loop arrivals); the
//! trace is dealt round-robin across processors (op `i` → proc `i mod
//! nprocs`), and each processor charges its arrival stamps in virtual
//! time — idling until an op's stamp when it is ahead, draining the
//! backlog at service rate when it is behind.
//!
//! **Why the final state is deterministic.** Shard locks serialize
//! same-shard requests, but cross-shard interleaving (and hence the order
//! of mutations to a key) still depends on the schedule. Every mutation is
//! therefore *commutative*: a put XOR-folds a per-op digest into all value
//! words, a delete XOR-folds a tombstone digest into word 0, and both bump
//! the key's version word (addition). XOR and addition commute, so the
//! final table is a pure function of the trace *set*, not the execution
//! order — a sequential host-side replay ([`KvService::expected_checksum`])
//! must match the shared-memory checksum under any protocol, topology, or
//! fault schedule, and `execute` asserts exactly that.
//!
//! With [`KeyMap::Direct`] (the default) popularity rank equals table
//! slot, so the Zipfian head lands on the table's first pages and per-page
//! fault heat exposes the configured skew; slots are much smaller than a
//! page, so unrelated keys share pages and the skewed write traffic
//! exercises false sharing.

use cashmere_core::{Cluster, RunSpec, SyncSpec};
use cashmere_workload::{KeyMap, OpKind, Trace, WorkloadSpec};

use crate::util::{checksum_slice, ArrU64};
use crate::{AppOutcome, Benchmark, Scale};

/// The KV service benchmark instance.
#[derive(Debug, Clone)]
pub struct KvService {
    /// Trace generator parameters (keyspace, skew, mix, arrivals, seed).
    pub spec: WorkloadSpec,
    /// Words per value (a whole value is read by a get and folded by a
    /// put).
    pub value_words: usize,
    /// Shard-lock count; key `k` is guarded by lock `k mod shards`.
    pub shards: usize,
    /// Service compute charged per request (ns), on top of memory traffic.
    pub service_ns: u64,
}

impl KvService {
    /// Standard instance at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Test => Self {
                spec: WorkloadSpec {
                    keys: 512,
                    theta: 0.99,
                    ops: 6_000,
                    get_frac: 0.70,
                    put_frac: 0.25,
                    mean_interarrival_ns: 3_000,
                    key_map: KeyMap::Direct,
                    seed: 0x05EA_F00D,
                },
                value_words: 4,
                shards: 16,
                service_ns: 1_500,
            },
            Scale::Bench => Self {
                spec: WorkloadSpec {
                    keys: 4_096,
                    theta: 0.99,
                    ops: 24_000,
                    get_frac: 0.70,
                    put_frac: 0.25,
                    mean_interarrival_ns: 2_000,
                    key_map: KeyMap::Direct,
                    seed: 0x05EA_F00D,
                },
                value_words: 4,
                shards: 32,
                service_ns: 2_000,
            },
        }
    }

    /// The generated request trace (deterministic in the spec).
    pub fn trace(&self) -> Trace {
        Trace::generate(&self.spec)
    }

    /// Checksum a sequential host-side replay of the trace produces — the
    /// value every DSM run must reproduce exactly.
    pub fn expected_checksum(&self) -> u64 {
        let trace = self.trace();
        let vw = self.value_words;
        let mut table = vec![0u64; self.spec.keys * vw];
        let mut vers = vec![0u64; self.spec.keys];
        for op in &trace.ops {
            let k = op.key as usize;
            match op.kind {
                OpKind::Get => {}
                OpKind::Put => {
                    for j in 0..vw {
                        table[k * vw + j] ^= digest_word(op.val, j as u64);
                    }
                    vers[k] += 1;
                }
                OpKind::Delete => {
                    table[k * vw] ^= digest_word(op.val, vw as u64);
                    vers[k] += 1;
                }
            }
        }
        combine(checksum_slice(&table), checksum_slice(&vers))
    }
}

/// Per-op value digest for lane `j` (puts fold lanes `0..value_words`;
/// deletes fold the tombstone lane `value_words` into word 0). A 64-bit
/// finalizer keeps lanes of the same op decorrelated.
fn digest_word(val: u64, j: u64) -> u64 {
    let mut x = val ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x
}

/// Combines the value-table and version-array checksums into the app
/// checksum (same on the host-replay and shared-memory sides).
fn combine(table_cs: u64, vers_cs: u64) -> u64 {
    table_cs ^ vers_cs.rotate_left(17)
}

impl Benchmark for KvService {
    fn name(&self) -> &'static str {
        "KV"
    }

    fn size_description(&self) -> String {
        format!(
            "{} keys x {} words, {} ops, theta {}",
            self.spec.keys, self.value_words, self.spec.ops, self.spec.theta
        )
    }

    fn timing_reps(&self) -> usize {
        3 // shard-lock interleavings make the timing nondeterministic
    }

    fn configure(&self, cfg: &mut RunSpec) {
        let words = self.spec.keys * self.value_words + self.spec.keys;
        cfg.heap_pages = words.div_ceil(cashmere_core::PAGE_WORDS) + 2;
        cfg.sync = SyncSpec {
            locks: self.shards,
            barriers: 2,
            flags: 0,
        };
        cfg.bus_bytes_per_access = 4;
        cfg.poll_fraction = 0.05;
    }

    fn execute(&self, cluster: &mut Cluster) -> AppOutcome {
        let vw = self.value_words;
        let shards = self.shards;
        let service_ns = self.service_ns;
        let trace = self.trace();
        let table = ArrU64::alloc(cluster, self.spec.keys * vw);
        let vers = ArrU64::alloc(cluster, self.spec.keys);

        let report = cluster.run(|p| {
            let np = p.nprocs();
            let id = p.id();
            let mut buf = vec![0u64; vw];
            p.barrier(0);
            // Arrival stamps are relative to run start: anchor them at the
            // post-barrier clock so every processor shares the same origin.
            let t0 = p.now();
            for op in trace.ops.iter().skip(id).step_by(np) {
                // Open-loop arrival: idle until the stamp if we are ahead;
                // if we are behind, the backlog drains at service rate.
                let target = t0 + op.at;
                let now = p.now();
                if target > now {
                    p.compute(target - now);
                }
                p.compute(service_ns);

                let k = op.key as usize;
                p.lock(k % shards);
                match op.kind {
                    OpKind::Get => {
                        // Read the whole value (and version); the words
                        // themselves are schedule-dependent, so gets only
                        // generate traffic — they contribute no state.
                        table.get_run(p, k * vw, &mut buf);
                        let _ = vers.get(p, k);
                    }
                    OpKind::Put => {
                        table.get_run(p, k * vw, &mut buf);
                        for (j, w) in buf.iter_mut().enumerate() {
                            *w ^= digest_word(op.val, j as u64);
                        }
                        table.set_run(p, k * vw, &buf);
                        let v = vers.get(p, k);
                        vers.set(p, k, v + 1);
                    }
                    OpKind::Delete => {
                        let w = table.get(p, k * vw);
                        table.set(p, k * vw, w ^ digest_word(op.val, vw as u64));
                        let v = vers.get(p, k);
                        vers.set(p, k, v + 1);
                    }
                }
                p.unlock(k % shards);
                // Sojourn = completion minus the open-loop arrival stamp
                // (service + queueing; zero-width when obs is off).
                p.record_sojourn(p.now() - target);
            }
            p.barrier(1);
        });

        let checksum = combine(table.checksum(cluster), vers.checksum(cluster));
        assert_eq!(
            checksum,
            self.expected_checksum(),
            "KV final state diverged from the sequential host replay"
        );
        AppOutcome { report, checksum }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use cashmere_core::{ProtocolKind, Topology};

    #[test]
    fn kv_matches_sequential_replay_under_every_protocol() {
        let app = KvService::new(Scale::Test);
        let want = app.expected_checksum();
        for protocol in ProtocolKind::PAPER_FOUR {
            let out = run_app(&app, &RunSpec::new(Topology::new(2, 2), protocol)).0;
            assert_eq!(out.checksum, want, "{}", protocol.label());
        }
    }

    #[test]
    fn kv_sequential_run_matches_replay() {
        let app = KvService::new(Scale::Test);
        let out = run_app(
            &app,
            &RunSpec::new(Topology::new(1, 1), ProtocolKind::OneLevelDiff),
        )
        .0;
        assert_eq!(out.checksum, app.expected_checksum());
    }

    #[test]
    fn replay_checksum_is_mix_sensitive() {
        let base = KvService::new(Scale::Test);
        let mut writes = base.clone();
        writes.spec.get_frac = 0.1;
        writes.spec.put_frac = 0.8;
        assert_ne!(base.expected_checksum(), writes.expected_checksum());
    }

    #[test]
    fn scatter_map_reproduces_too() {
        let mut app = KvService::new(Scale::Test);
        app.spec.key_map = KeyMap::Scatter;
        app.spec.ops = 2_000;
        let out = run_app(
            &app,
            &RunSpec::new(Topology::new(2, 2), ProtocolKind::TwoLevel),
        )
        .0;
        assert_eq!(out.checksum, app.expected_checksum());
    }
}
