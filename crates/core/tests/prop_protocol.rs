//! Property-based protocol tests: randomly generated data-race-free
//! programs must produce identical results under every protocol, and the
//! directory encoding must round-trip. Randomized deterministically with a
//! local SplitMix64 (the container has no registry access, so proptest is
//! unavailable); every case is reproducible from its seed.

use cashmere_core::directory::{DirWord, PermBits};
use cashmere_core::{Cluster, ProtocolKind, RunSpec, SyncSpec, Topology, PAGE_WORDS};
use cashmere_sim::Resource;

/// SplitMix64: tiny, high-quality, stateless-seedable PRNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Directory words round-trip through their wire encoding — exhaustive
/// over the whole (perm, exclusive, excl_proc) space.
#[test]
fn dir_word_pack_roundtrip() {
    for perm in [PermBits::None, PermBits::Read, PermBits::Write] {
        for exclusive in [false, true] {
            for excl_proc in 0..128u16 {
                let w = DirWord {
                    perm,
                    exclusive,
                    excl_proc,
                };
                assert_eq!(DirWord::unpack(w.pack()), w);
            }
        }
    }
}

/// Resource grants never overlap and respect request times.
#[test]
fn resource_grants_are_disjoint() {
    for seed in 0..100u64 {
        let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 5;
        let n = 1 + (splitmix64(&mut rng) % 63) as usize;
        let reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                let now = splitmix64(&mut rng) % 10_000;
                let busy = 1 + splitmix64(&mut rng) % 499;
                (now, busy)
            })
            .collect();
        let r = Resource::new();
        let mut grants = Vec::new();
        for &(now, busy) in &reqs {
            let end = r.acquire(now, busy);
            assert!(end >= now + busy, "seed {seed}");
            grants.push((end - busy, end));
        }
        grants.sort_unstable();
        for pair in grants.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "seed {seed}: grants overlap: {pair:?}"
            );
        }
    }
}

/// One step of a random DRF program: each processor owns a stripe of words;
/// phases alternate "write own stripe as f(round, inputs)" and "read a
/// rotated stripe", with barriers between. The final memory image must be
/// identical under every protocol and topology.
fn drf_program_result(
    protocol: ProtocolKind,
    nodes: usize,
    ppn: usize,
    rounds: usize,
    stride: usize,
    seed: u64,
) -> Vec<u64> {
    let procs = nodes * ppn;
    let words = procs * stride;
    let cfg = RunSpec::new(Topology::new(nodes, ppn), protocol)
        .with_heap_pages(words.div_ceil(PAGE_WORDS) + 2)
        .with_sync(SyncSpec {
            locks: 1,
            barriers: 2,
            flags: 0,
        });
    let mut c = Cluster::new(cfg);
    let base = c.alloc_page_aligned(words);
    for i in 0..words {
        c.seed_u64(base + i, seed.wrapping_mul(i as u64 + 1));
    }
    c.run(|p| {
        let me = p.id();
        let np = p.nprocs();
        for r in 0..rounds {
            // Read a rotated stripe (previous round's values).
            let victim = (me + r + 1) % np;
            let mut acc = 0u64;
            for i in 0..stride {
                acc = acc.wrapping_add(p.read_u64(base + victim * stride + i));
            }
            p.barrier(0);
            // Write own stripe from what was read.
            for i in 0..stride {
                p.write_u64(base + me * stride + i, acc.wrapping_add(i as u64));
            }
            p.barrier(1);
        }
    });
    (0..words).map(|i| c.read_u64(base + i)).collect()
}

/// Random DRF stripe programs agree across all protocols and shapes.
#[test]
fn random_drf_programs_agree_across_protocols() {
    for case in 0..12u64 {
        let mut rng = case.wrapping_mul(0x9E6C_63D0_876A_4F21) ^ 9;
        let rounds = 1 + (splitmix64(&mut rng) % 4) as usize;
        let stride = 1 + (splitmix64(&mut rng) % 23) as usize;
        let seed = splitmix64(&mut rng) | 1;
        let reference = drf_program_result(ProtocolKind::TwoLevel, 4, 1, rounds, stride, seed);
        for protocol in ProtocolKind::ALL {
            let got = drf_program_result(protocol, 2, 2, rounds, stride, seed);
            assert_eq!(
                got,
                reference,
                "{} at 2x2 (rounds={rounds}, stride={stride}, seed={seed})",
                protocol.label()
            );
        }
    }
}
