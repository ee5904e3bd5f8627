//! The vocabulary a [`crate::RunSpec`] is written in: protocol selection,
//! directory layout, synchronization pool sizing.

use cashmere_sim::{NodeMap, Topology};

/// Which coherence protocol to run (§2.2, §2.6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Cashmere-2L: two-level, two-way diffing (the paper's contribution).
    TwoLevel,
    /// Cashmere-2LS: two-level, TLB-shootdown-style reconciliation.
    TwoLevelShootdown,
    /// Cashmere-1LD: one protocol node per processor, twins + outgoing diffs.
    OneLevelDiff,
    /// Cashmere-1L: one protocol node per processor, in-line write doubling.
    OneLevelWrite,
    /// 1LD with the home-node optimization: processors on a page's home
    /// *physical* node operate directly on the master copy.
    OneLevelDiffHome,
    /// 1L with the home-node optimization.
    OneLevelWriteHome,
}

impl ProtocolKind {
    /// All six variants, in the paper's presentation order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::TwoLevel,
        ProtocolKind::TwoLevelShootdown,
        ProtocolKind::OneLevelDiff,
        ProtocolKind::OneLevelWrite,
        ProtocolKind::OneLevelDiffHome,
        ProtocolKind::OneLevelWriteHome,
    ];

    /// The four protocols of Figures 6–7 and Table 3.
    pub const PAPER_FOUR: [ProtocolKind; 4] = [
        ProtocolKind::TwoLevel,
        ProtocolKind::TwoLevelShootdown,
        ProtocolKind::OneLevelDiff,
        ProtocolKind::OneLevelWrite,
    ];

    /// Protocol-node mapping: the two-level protocols treat a physical node
    /// as one protocol node; the one-level protocols treat every processor
    /// as a separate node.
    pub fn node_map(self) -> NodeMap {
        match self {
            ProtocolKind::TwoLevel | ProtocolKind::TwoLevelShootdown => NodeMap::Physical,
            _ => NodeMap::PerProcessor,
        }
    }

    /// Whether this is one of the two-level protocols.
    pub fn is_two_level(self) -> bool {
        matches!(
            self,
            ProtocolKind::TwoLevel | ProtocolKind::TwoLevelShootdown
        )
    }

    /// Whether intra-node reconciliation uses shootdown (2LS) rather than
    /// two-way diffing (2L). Irrelevant for the one-level protocols, whose
    /// protocol nodes have a single processor.
    pub fn uses_shootdown(self) -> bool {
        matches!(self, ProtocolKind::TwoLevelShootdown)
    }

    /// Whether stores are written through to the home copy in-line (the 1L
    /// write-doubling protocols) instead of collected with twins and diffs.
    pub fn write_through(self) -> bool {
        matches!(
            self,
            ProtocolKind::OneLevelWrite | ProtocolKind::OneLevelWriteHome
        )
    }

    /// Whether the one-level home-node optimization is enabled: every
    /// processor on the home *physical* node works directly on the master
    /// copy. (Inherent in the two-level protocols.)
    pub fn home_node_opt(self) -> bool {
        matches!(
            self,
            ProtocolKind::TwoLevel
                | ProtocolKind::TwoLevelShootdown
                | ProtocolKind::OneLevelDiffHome
                | ProtocolKind::OneLevelWriteHome
        )
    }

    /// Short display label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::TwoLevel => "2L",
            ProtocolKind::TwoLevelShootdown => "2LS",
            ProtocolKind::OneLevelDiff => "1LD",
            ProtocolKind::OneLevelWrite => "1L",
            ProtocolKind::OneLevelDiffHome => "1LD+H",
            ProtocolKind::OneLevelWriteHome => "1L+H",
        }
    }

    /// Parses a [`Self::label`] back to the protocol (used by report
    /// deserialization).
    pub fn from_label(s: &str) -> Option<Self> {
        ProtocolKind::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// Named sizing of the application synchronization pools
/// ([`crate::RunSpec::sync`]); an application's `configure` declares what
/// it needs here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncSpec {
    /// Number of application locks.
    pub locks: usize,
    /// Number of application barriers.
    pub barriers: usize,
    /// Number of application flags.
    pub flags: usize,
}

impl Default for SyncSpec {
    /// 64 locks, 8 barriers, no flags.
    fn default() -> Self {
        Self {
            locks: 64,
            barriers: 8,
            flags: 0,
        }
    }
}

/// How the global directory and remote write-notice lists are protected
/// (§3.3.5). `LockFree` is Cashmere-2L's per-node-word design; `GlobalLock`
/// is the ablation that compresses each entry and serializes access with a
/// cluster-wide lock; `Sparse` is the beyond-the-paper scaling design
/// (DESIGN.md §12) that shards entries across home nodes instead of
/// replicating them everywhere.
///
/// Every mode states its *modeled* memory (what the simulated cluster's
/// Memory Channel space holds, reported as `DirUsage::mc_bytes`) and its
/// *host* memory (what the simulator allocates) separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryMode {
    /// One word per node per entry, replicated on every node; no locks (the
    /// paper's design). Modeled: O(pages × nodes) words per node,
    /// O(pages × nodes²) in all, and an `8 × (nodes − 1)`-byte broadcast per
    /// update. Host: one shared copy, O(pages × nodes) words, and one store
    /// per update.
    #[default]
    LockFree,
    /// Compressed entries protected by global locks (the ablation). Memory,
    /// modeled and host, as [`DirectoryMode::LockFree`].
    GlobalLock,
    /// Home-sharded entries: each page's directory entry lives only on its
    /// home shard (`page % nodes`), readers consult the shard through a
    /// per-node cache guarded by an invalidation-on-change word, and updates
    /// are O(1) messages instead of an O(nodes) broadcast (DESIGN.md §12).
    /// Modeled: one copy, O(pages × nodes / 32) words. Host: that copy plus
    /// the per-node caches, O(pages × nodes) words, plus a receive-mapping
    /// slot per endpoint in each of the `nodes` shard regions. Lock-free
    /// like the paper's design.
    Sparse,
}

impl DirectoryMode {
    /// How many physical nodes the replicated (paper) directory comfortably
    /// serves. Beyond this, its modeled O(pages × nodes) memory per node and
    /// O(nodes) broadcast per update dominate (DESIGN.md §12).
    pub const REPLICATED_NODE_LIMIT: usize = 8;

    /// The default directory for `topology`: the paper's replicated
    /// lock-free directory up to the paper's largest cluster (8 nodes), the
    /// home-sharded [`DirectoryMode::Sparse`] directory beyond it. Keyed on
    /// *physical* nodes — the directory is a per-node structure, and at the
    /// paper's 8×4 the one-level protocols already run 32 protocol nodes on
    /// 8 physical ones — so every paper configuration keeps the paper's
    /// directory under every protocol, and only the scaling-ladder shapes
    /// (16 nodes and up) flip to Sparse.
    pub fn default_for(topology: &Topology) -> Self {
        if topology.nodes() > Self::REPLICATED_NODE_LIMIT {
            DirectoryMode::Sparse
        } else {
            DirectoryMode::LockFree
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_default_is_replicated_up_to_the_papers_largest_cluster() {
        // Every paper configuration (Figure 7 tops out at 8×4) keeps the
        // paper's replicated lock-free directory — including under the
        // one-level protocols, whose 32 protocol nodes still live on 8
        // physical nodes.
        for (nodes, per) in [(1, 1), (2, 2), (4, 4), (8, 1), (8, 4)] {
            let t = Topology::new(nodes, per);
            assert_eq!(DirectoryMode::default_for(&t), DirectoryMode::LockFree);
        }
        // The scaling-ladder shapes flip to the home-sharded directory.
        for (nodes, per) in [(16, 8), (32, 8), (64, 16)] {
            let t = Topology::new(nodes, per);
            assert_eq!(DirectoryMode::default_for(&t), DirectoryMode::Sparse);
        }
    }

    #[test]
    fn protocol_kind_properties() {
        use ProtocolKind::*;
        assert!(TwoLevel.is_two_level() && TwoLevelShootdown.is_two_level());
        assert!(!OneLevelDiff.is_two_level());
        assert!(TwoLevelShootdown.uses_shootdown());
        assert!(!TwoLevel.uses_shootdown());
        assert!(OneLevelWrite.write_through() && OneLevelWriteHome.write_through());
        assert!(!OneLevelDiff.write_through());
        assert!(TwoLevel.home_node_opt(), "inherent in the two-level design");
        assert!(OneLevelDiffHome.home_node_opt());
        assert!(!OneLevelDiff.home_node_opt());
    }

    #[test]
    fn protocol_node_counts() {
        let topo = Topology::new(8, 4);
        let nodes = |p: ProtocolKind| p.node_map().protocol_nodes(&topo);
        assert_eq!(nodes(ProtocolKind::TwoLevel), 8);
        assert_eq!(nodes(ProtocolKind::OneLevelDiff), 32);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_label(p.label()), Some(p));
        }
        assert_eq!(ProtocolKind::from_label("bogus"), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            ProtocolKind::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), ProtocolKind::ALL.len());
    }
}
