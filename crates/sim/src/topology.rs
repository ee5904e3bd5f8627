//! Cluster topology: physical nodes, processors, and protocol nodes.
//!
//! The paper's prototype is eight 4-processor AlphaServer nodes. The paper's
//! configurations are written `P:k` — `P` processors total with `k` processes
//! per node (e.g. `32:4`, `8:1`). The *physical* topology determines which
//! processors share hardware coherence, a memory bus, and a Memory Channel
//! adapter. The *protocol* topology determines the unit of coherence
//! book-keeping: for the two-level protocols it equals the physical topology;
//! the one-level protocols "treat each processor as a separate node".

/// Identifies a simulated processor (0-based, cluster-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub usize);

/// Identifies a node (0-based). Whether this is a *physical* or a *protocol*
/// node depends on the [`Topology`] it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The shape of the simulated cluster.
///
/// Processors are numbered node-major: processor `p` lives on physical node
/// `p / procs_per_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    procs_per_node: usize,
}

impl Topology {
    /// Creates a topology of `nodes` physical nodes with `procs_per_node`
    /// processors each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, procs_per_node: usize) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(
            procs_per_node > 0,
            "topology needs at least one processor per node"
        );
        Self {
            nodes,
            procs_per_node,
        }
    }

    /// Parses the paper's `P:k` notation (total processors : processes per
    /// node), e.g. `32:4` is eight 4-processor nodes.
    ///
    /// Returns `None` if `total` is not divisible by `per_node` or either is
    /// zero.
    pub fn from_paper_config(total: usize, per_node: usize) -> Option<Self> {
        if total == 0 || per_node == 0 || !total.is_multiple_of(per_node) {
            return None;
        }
        Some(Self::new(total / per_node, per_node))
    }

    /// Number of physical nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Processors per physical node.
    #[inline]
    pub fn procs_per_node(&self) -> usize {
        self.procs_per_node
    }

    /// Total processors in the cluster.
    #[inline]
    pub fn total_procs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Physical node hosting processor `p`.
    #[inline]
    pub fn node_of(&self, p: ProcId) -> NodeId {
        debug_assert!(p.0 < self.total_procs());
        NodeId(p.0 / self.procs_per_node)
    }

    /// Processors hosted on physical node `n`.
    pub fn procs_on(&self, n: NodeId) -> impl Iterator<Item = ProcId> {
        let base = n.0 * self.procs_per_node;
        (base..base + self.procs_per_node).map(ProcId)
    }
}

/// Why a topology string failed to parse; `Display` spells out the two
/// accepted grammars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTopologyError(String);

impl std::fmt::Display for ParseTopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bad topology `{}`: want `<nodes>x<procs_per_node>` (e.g. 8x4) \
             or the paper's `<total_procs>:<per_node>` (e.g. 32:4)",
            self.0
        )
    }
}

impl std::error::Error for ParseTopologyError {}

/// Parses quick-config shapes for sweeps and scripts: `8x4` is eight
/// 4-processor nodes, and the paper's `32:4` notation (total processors :
/// processes per node) names the same cluster. Asymmetric scaling shapes
/// like `64:16` (four 16-way nodes) or `16x8` work the same way.
impl std::str::FromStr for Topology {
    type Err = ParseTopologyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseTopologyError(s.to_string());
        let parse = |part: &str| part.trim().parse::<usize>().map_err(|_| err());
        if let Some((nodes, ppn)) = s.split_once(['x', 'X']) {
            let (nodes, ppn) = (parse(nodes)?, parse(ppn)?);
            if nodes == 0 || ppn == 0 {
                return Err(err());
            }
            Ok(Self::new(nodes, ppn))
        } else if let Some((total, per)) = s.split_once(':') {
            Topology::from_paper_config(parse(total)?, parse(per)?).ok_or_else(err)
        } else {
            Err(err())
        }
    }
}

/// Renders as `<nodes>x<procs_per_node>` — the unambiguous of the two
/// accepted grammars (it round-trips through [`FromStr`](std::str::FromStr)).
impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.nodes, self.procs_per_node)
    }
}

/// Maps processors to *protocol* nodes.
///
/// Two-level protocols use one protocol node per physical node; one-level
/// protocols use one protocol node per processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMap {
    /// Protocol node == physical node (two-level protocols).
    Physical,
    /// Protocol node == processor (one-level protocols).
    PerProcessor,
}

impl NodeMap {
    /// Number of protocol nodes under this mapping.
    #[inline]
    pub fn protocol_nodes(&self, topo: &Topology) -> usize {
        match self {
            NodeMap::Physical => topo.nodes(),
            NodeMap::PerProcessor => topo.total_procs(),
        }
    }

    /// Protocol node of processor `p`.
    #[inline]
    pub fn pnode_of(&self, topo: &Topology, p: ProcId) -> NodeId {
        match self {
            NodeMap::Physical => topo.node_of(p),
            NodeMap::PerProcessor => NodeId(p.0),
        }
    }

    /// Processors belonging to protocol node `pn`.
    pub fn procs_of(&self, topo: &Topology, pn: NodeId) -> Vec<ProcId> {
        match self {
            NodeMap::Physical => topo.procs_on(pn).collect(),
            NodeMap::PerProcessor => vec![ProcId(pn.0)],
        }
    }

    /// Physical node hosting protocol node `pn` (for link/bus charging).
    #[inline]
    pub fn physical_of(&self, topo: &Topology, pn: NodeId) -> NodeId {
        match self {
            NodeMap::Physical => pn,
            NodeMap::PerProcessor => topo.node_of(ProcId(pn.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_parse() {
        let t = Topology::from_paper_config(32, 4).unwrap();
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.procs_per_node(), 4);
        assert_eq!(t.total_procs(), 32);

        let t = Topology::from_paper_config(24, 3).unwrap();
        assert_eq!(t.nodes(), 8);

        assert!(Topology::from_paper_config(8, 3).is_none());
        assert!(Topology::from_paper_config(0, 1).is_none());
    }

    #[test]
    fn node_major_numbering() {
        let t = Topology::new(4, 4);
        assert_eq!(t.node_of(ProcId(0)), NodeId(0));
        assert_eq!(t.node_of(ProcId(3)), NodeId(0));
        assert_eq!(t.node_of(ProcId(4)), NodeId(1));
        assert_eq!(t.node_of(ProcId(15)), NodeId(3));
        let on1: Vec<_> = t.procs_on(NodeId(1)).collect();
        assert_eq!(on1, vec![ProcId(4), ProcId(5), ProcId(6), ProcId(7)]);
    }

    #[test]
    fn node_map_physical_vs_per_processor() {
        let t = Topology::new(2, 4);
        assert_eq!(NodeMap::Physical.protocol_nodes(&t), 2);
        assert_eq!(NodeMap::PerProcessor.protocol_nodes(&t), 8);
        assert_eq!(NodeMap::Physical.pnode_of(&t, ProcId(5)), NodeId(1));
        assert_eq!(NodeMap::PerProcessor.pnode_of(&t, ProcId(5)), NodeId(5));
        assert_eq!(NodeMap::PerProcessor.physical_of(&t, NodeId(5)), NodeId(1));
        assert_eq!(NodeMap::Physical.procs_of(&t, NodeId(1)).len(), 4);
        assert_eq!(
            NodeMap::PerProcessor.procs_of(&t, NodeId(6)),
            vec![ProcId(6)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = Topology::new(0, 4);
    }

    #[test]
    fn topology_strings_parse_both_grammars_and_round_trip() {
        let shapes = [
            ("8x4", (8, 4)),
            ("16X8", (16, 8)),
            ("1x1", (1, 1)),
            ("32:4", (8, 4)),
            ("64:16", (4, 16)),
            (" 1024 : 16 ", (64, 16)),
        ];
        for (s, (nodes, ppn)) in shapes {
            let t: Topology = s.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!((t.nodes(), t.procs_per_node()), (nodes, ppn), "{s}");
            assert_eq!(t.to_string().parse::<Topology>().unwrap(), t);
        }
        for bad in ["", "8", "8x0", "0x4", "8:3", "0:0", "8x4x2", "ax4", "8:"] {
            let e = bad.parse::<Topology>().unwrap_err();
            assert!(e.to_string().contains("bad topology"), "{bad}: {e}");
        }
    }
}
