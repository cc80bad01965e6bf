//! Datacenter topology graph.
//!
//! Nodes are servers or switches; links are **directed** capacitated edges
//! (a physical full-duplex cable is two directed links). Directed links
//! keep bandwidth accounting exact: a shuffle fetch loads only the
//! mapper→reducer direction, as on real hardware.

use std::collections::BTreeMap;
use std::fmt;

/// Index of a node (server or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of a directed link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// What a node is. Rack ids let the builders and the flow-aggregation
/// policies reason about locality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A Hadoop slave (or any end host).
    Server {
        /// The rack the server sits in.
        rack: u32,
    },
    /// A network switch.
    Switch {
        /// `Some` for ToR switches, `None` for core/aggregation.
        rack: Option<u32>,
    },
}

/// A node with a human-readable name for traces and diagrams.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable name for traces ("server3", "tor1").
    pub name: String,
    /// Server vs switch, with rack placement.
    pub kind: NodeKind,
}

impl Node {
    /// True for end hosts (servers), false for switches.
    pub fn is_server(&self) -> bool {
        matches!(self.kind, NodeKind::Server { .. })
    }

    /// The rack this node belongs to, if any.
    pub fn rack(&self) -> Option<u32> {
        match self.kind {
            NodeKind::Server { rack } => Some(rack),
            NodeKind::Switch { rack } => rack,
        }
    }
}

/// A directed capacitated edge.
#[derive(Debug, Clone)]
pub struct Link {
    /// Transmitting end.
    pub src: NodeId,
    /// Receiving end.
    pub dst: NodeId,
    /// Nominal capacity in bits per second.
    pub capacity_bps: f64,
}

/// An immutable topology graph.
///
/// Built once via [`TopologyBuilder`]; the simulation never mutates it
/// (link failures are modelled as controller-visible state on top, not by
/// editing the graph).
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node, in insertion order (deterministic).
    out_links: BTreeMap<NodeId, Vec<LinkId>>,
    /// Server nodes in id order, frozen at build time. `servers()` sits in
    /// hot loops (controller warm-up, ECMP table construction); scanning
    /// every node per call is O(n) waste on a 1k-host fabric.
    servers: Vec<NodeId>,
}

impl Topology {
    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The directed link with the given id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Directed-link count.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All nodes with their ids, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All directed links with their ids, in id order.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// All server nodes, in id order. Cached at build time — this is a
    /// slice borrow, not an allocation.
    pub fn servers(&self) -> &[NodeId] {
        &self.servers
    }

    /// Outgoing links of `node`, in insertion order.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        self.out_links.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The directed link from `src` to `dst` with the given parallel-link
    /// index (0 for the first cable between the pair).
    pub fn find_link(&self, src: NodeId, dst: NodeId, parallel_index: usize) -> Option<LinkId> {
        self.out_links(src)
            .iter()
            .copied()
            .filter(|&l| self.link(l).dst == dst)
            .nth(parallel_index)
    }

    /// Change a link's capacity in place. Intended for failure/degradation
    /// modelling by the owner of a topology copy (e.g. the live network's
    /// view after a cable fault); structural shape never changes. Zero is
    /// allowed here (a hard-down cable); consumers such as
    /// [`FlowNet::link_utilization`](crate::FlowNet::link_utilization)
    /// guard the division.
    pub fn set_link_capacity(&mut self, id: LinkId, capacity_bps: f64) {
        assert!(
            capacity_bps.is_finite() && capacity_bps >= 0.0,
            "capacity must stay finite and non-negative"
        );
        self.links[id.0 as usize].capacity_bps = capacity_bps;
    }

    /// Look up a node by name (O(n); for tests and builders only).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes().find(|(_, n)| n.name == name).map(|(id, _)| id)
    }
}

/// Incremental topology construction.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an end host in `rack`.
    pub fn add_server(&mut self, name: impl Into<String>, rack: u32) -> NodeId {
        self.add_node(Node {
            name: name.into(),
            kind: NodeKind::Server { rack },
        })
    }

    /// Add a top-of-rack switch for `rack`.
    pub fn add_tor_switch(&mut self, name: impl Into<String>, rack: u32) -> NodeId {
        self.add_node(Node {
            name: name.into(),
            kind: NodeKind::Switch { rack: Some(rack) },
        })
    }

    /// Add a core/aggregation switch (no rack).
    pub fn add_core_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(Node {
            name: name.into(),
            kind: NodeKind::Switch { rack: None },
        })
    }

    fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Add one directed link.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, capacity_bps: f64) -> LinkId {
        assert!(
            capacity_bps.is_finite() && capacity_bps > 0.0,
            "link capacity must be positive, got {capacity_bps}"
        );
        assert_ne!(src, dst, "self-links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src,
            dst,
            capacity_bps,
        });
        id
    }

    /// Add a full-duplex cable: two directed links of equal capacity.
    /// Returns `(src→dst, dst→src)`.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, capacity_bps: f64) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, capacity_bps);
        let ba = self.add_link(b, a, capacity_bps);
        (ab, ba)
    }

    /// Freeze the builder into an immutable topology.
    pub fn build(self) -> Topology {
        let mut out_links: BTreeMap<NodeId, Vec<LinkId>> = BTreeMap::new();
        for (i, l) in self.links.iter().enumerate() {
            out_links.entry(l.src).or_default().push(LinkId(i as u32));
        }
        let servers = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_server())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        Topology {
            nodes: self.nodes,
            links: self.links,
            out_links,
            servers,
        }
    }
}

/// Parameters for the paper's reference topology: `racks` racks of
/// `servers_per_rack` servers, each server attached to its ToR switch with
/// a `nic_bps` duplex cable, and every pair of ToR switches joined by
/// `trunk_count` parallel duplex cables of `trunk_bps` each (the paper's
/// testbed: 2 racks × 5 servers, 2 inter-rack links).
#[derive(Debug, Clone)]
pub struct MultiRackParams {
    /// Number of racks.
    pub racks: u32,
    /// Servers per rack.
    pub servers_per_rack: u32,
    /// Server NIC speed (bits/sec).
    pub nic_bps: f64,
    /// Parallel cables between each ToR pair.
    pub trunk_count: u32,
    /// Capacity of each trunk cable (bits/sec).
    pub trunk_bps: f64,
}

impl Default for MultiRackParams {
    fn default() -> Self {
        // The paper's testbed shape with 1 GbE NICs and two 10 GbE trunks.
        MultiRackParams {
            racks: 2,
            servers_per_rack: 5,
            nic_bps: 1e9,
            trunk_count: 2,
            trunk_bps: 10e9,
        }
    }
}

/// A built fabric plus the handles the rest of the stack needs. The name
/// dates from the paper's multi-rack reference shape, but the same handle
/// set describes any fabric the engine can drive: [`build_fat_tree`]
/// returns one too, with `tors` holding the edge (leaf) switches and
/// `trunk_links` every switch-to-switch link.
#[derive(Debug, Clone)]
pub struct MultiRack {
    /// The built graph.
    pub topology: Topology,
    /// Server nodes, rack-major order.
    pub servers: Vec<NodeId>,
    /// One leaf (ToR/edge) switch per rack.
    pub tors: Vec<NodeId>,
    /// Directed inter-switch trunk links (both directions of each cable,
    /// consecutively), i.e. the links background over-subscription
    /// traffic is injected on. Cable `i` is entries `2i`/`2i+1`.
    pub trunk_links: Vec<LinkId>,
    /// Structural (Clos) metadata when the fabric is a fat-tree —
    /// consumed by the controller's structural path enumerator. `None`
    /// for irregular fabrics (the controller falls back to Yen).
    pub clos: Option<ClosStructure>,
}

impl MultiRack {
    /// Per-link trunk membership, indexed by `LinkId.0`: `true` exactly
    /// for the links in `trunk_links`. One byte per link; lets a caller
    /// classify a path's links in O(hops) instead of scanning
    /// `trunk_links` per link.
    pub fn trunk_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.topology.num_links()];
        for &l in &self.trunk_links {
            mask[l.0 as usize] = true;
        }
        mask
    }
}

/// Build the paper's multi-rack leaf topology.
pub fn build_multi_rack(p: &MultiRackParams) -> MultiRack {
    assert!(p.racks >= 1, "need at least one rack");
    assert!(p.servers_per_rack >= 1, "need at least one server per rack");
    let mut b = TopologyBuilder::new();
    let mut servers = Vec::new();
    let mut tors = Vec::new();
    for r in 0..p.racks {
        let tor = b.add_tor_switch(format!("tor{r}"), r);
        tors.push(tor);
        for s in 0..p.servers_per_rack {
            let srv = b.add_server(format!("server{}", r * p.servers_per_rack + s), r);
            b.add_duplex(srv, tor, p.nic_bps);
            servers.push(srv);
        }
    }
    let mut trunk_links = Vec::new();
    for i in 0..tors.len() {
        for j in (i + 1)..tors.len() {
            for _ in 0..p.trunk_count {
                let (ab, ba) = b.add_duplex(tors[i], tors[j], p.trunk_bps);
                trunk_links.push(ab);
                trunk_links.push(ba);
            }
        }
    }
    MultiRack {
        topology: b.build(),
        servers,
        tors,
        trunk_links,
        clos: None,
    }
}

/// Parameters for a canonical k-ary fat-tree (Clos) fabric: `k` pods,
/// each with `k/2` edge and `k/2` aggregation switches, `(k/2)²` core
/// switches, and `k/2` servers per edge switch — `k³/4` servers total
/// (k=8 → 128 servers, k=16 → 1024 servers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTreeParams {
    /// Fat-tree arity. Must be even and ≥ 2.
    pub k: u32,
    /// Server NIC speed (bits/sec).
    pub nic_bps: f64,
    /// Capacity of each edge↔aggregation cable (bits/sec).
    pub edge_agg_bps: f64,
    /// Capacity of each aggregation↔core cable (bits/sec).
    pub agg_core_bps: f64,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        // 1 GbE hosts under a 10 GbE fabric, like the paper's testbed NICs.
        FatTreeParams {
            k: 4,
            nic_bps: 1e9,
            edge_agg_bps: 10e9,
            agg_core_bps: 10e9,
        }
    }
}

impl FatTreeParams {
    /// Number of servers this fat-tree hosts (`k³/4`).
    pub fn num_servers(&self) -> u32 {
        self.k * self.k * self.k / 4
    }
}

/// Structural metadata of a fat-tree, recorded at build time so the
/// controller can *enumerate* the k equal-length paths of a server pair
/// by symmetry — O(k·hops), no graph search — instead of running Yen.
///
/// Layout invariants of the canonical k-ary fat-tree this encodes:
/// * every server hangs off exactly one edge switch;
/// * edge switch `e` of a pod uplinks to all `k/2` aggregation switches
///   of that pod (ordered by aggregation index);
/// * aggregation switch at index `a` of *every* pod uplinks to core
///   group `a` (cores `a·k/2 .. (a+1)·k/2`), so a core reaches any pod
///   through the same aggregation index it belongs to.
#[derive(Debug, Clone)]
pub struct ClosStructure {
    k: u32,
    /// server → (edge switch, server→edge uplink).
    host_up: BTreeMap<NodeId, (NodeId, LinkId)>,
    /// edge switch → pod id.
    pod_of_edge: BTreeMap<NodeId, u32>,
    /// edge switch → ordered uplinks [(edge→agg link, agg)].
    edge_up: BTreeMap<NodeId, Vec<(LinkId, NodeId)>>,
    /// aggregation switch → ordered uplinks [(agg→core link, core)].
    agg_up: BTreeMap<NodeId, Vec<(LinkId, NodeId)>>,
    /// pod id → aggregation switches ordered by aggregation index.
    aggs_of_pod: BTreeMap<u32, Vec<NodeId>>,
    /// Directed down links: (core→agg | agg→edge | edge→server).
    down: BTreeMap<(NodeId, NodeId), LinkId>,
}

impl ClosStructure {
    /// Fat-tree arity.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Pods/edges/aggs per tier width (`k/2`).
    pub fn width(&self) -> usize {
        (self.k / 2) as usize
    }

    /// The edge switch and uplink of a server, if it is part of the
    /// structure.
    pub fn host_up(&self, server: NodeId) -> Option<(NodeId, LinkId)> {
        self.host_up.get(&server).copied()
    }

    /// The pod an edge switch belongs to.
    pub fn pod_of_edge(&self, edge: NodeId) -> Option<u32> {
        self.pod_of_edge.get(&edge).copied()
    }

    /// Ordered (link, aggregation switch) uplinks of an edge switch.
    pub fn edge_uplinks(&self, edge: NodeId) -> &[(LinkId, NodeId)] {
        self.edge_up.get(&edge).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ordered (link, core switch) uplinks of an aggregation switch.
    pub fn agg_uplinks(&self, agg: NodeId) -> &[(LinkId, NodeId)] {
        self.agg_up.get(&agg).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Aggregation switches of a pod, ordered by aggregation index.
    pub fn aggs_of_pod(&self, pod: u32) -> &[NodeId] {
        self.aggs_of_pod.get(&pod).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The directed down link from `from` (core/agg/edge) to `to`
    /// (agg/edge/server), if the structure wired one.
    pub fn down_link(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        self.down.get(&(from, to)).copied()
    }
}

/// Build a canonical k-ary fat-tree. `tors` holds the edge switches
/// (pod-major), `trunk_links` every switch-to-switch directed link
/// (duplex pairs consecutive), and `clos` the structural metadata the
/// controller's enumerator consumes.
pub fn build_fat_tree(p: &FatTreeParams) -> MultiRack {
    assert!(
        p.k >= 2 && p.k.is_multiple_of(2),
        "fat-tree arity must be even, ≥ 2"
    );
    let w = (p.k / 2) as usize;
    let mut b = TopologyBuilder::new();
    let mut servers = Vec::new();
    let mut tors = Vec::new();
    let mut trunk_links = Vec::new();

    let mut host_up = BTreeMap::new();
    let mut pod_of_edge = BTreeMap::new();
    let mut edge_up: BTreeMap<NodeId, Vec<(LinkId, NodeId)>> = BTreeMap::new();
    let mut agg_up: BTreeMap<NodeId, Vec<(LinkId, NodeId)>> = BTreeMap::new();
    let mut aggs_of_pod: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    let mut down = BTreeMap::new();

    // Core layer first: group g serves aggregation index g of every pod.
    let mut cores: Vec<Vec<NodeId>> = Vec::with_capacity(w);
    for g in 0..w {
        let mut group = Vec::with_capacity(w);
        for j in 0..w {
            group.push(b.add_core_switch(format!("core{g}_{j}")));
        }
        cores.push(group);
    }

    for pod in 0..p.k {
        let aggs: Vec<NodeId> = (0..w)
            .map(|a| b.add_core_switch(format!("pod{pod}agg{a}")))
            .collect();
        aggs_of_pod.insert(pod, aggs.clone());
        for e in 0..w {
            let rack = pod * w as u32 + e as u32;
            let edge = b.add_tor_switch(format!("pod{pod}edge{e}"), rack);
            tors.push(edge);
            pod_of_edge.insert(edge, pod);
            for s in 0..w {
                let idx = rack * w as u32 + s as u32;
                let srv = b.add_server(format!("server{idx}"), rack);
                let (up, dn) = b.add_duplex(srv, edge, p.nic_bps);
                host_up.insert(srv, (edge, up));
                down.insert((edge, srv), dn);
                servers.push(srv);
            }
            for &agg in &aggs {
                let (up, dn) = b.add_duplex(edge, agg, p.edge_agg_bps);
                trunk_links.push(up);
                trunk_links.push(dn);
                edge_up.entry(edge).or_default().push((up, agg));
                down.insert((agg, edge), dn);
            }
        }
        for (a, &agg) in aggs.iter().enumerate() {
            for &core in &cores[a] {
                let (up, dn) = b.add_duplex(agg, core, p.agg_core_bps);
                trunk_links.push(up);
                trunk_links.push(dn);
                agg_up.entry(agg).or_default().push((up, core));
                down.insert((core, agg), dn);
            }
        }
    }

    let clos = ClosStructure {
        k: p.k,
        host_up,
        pod_of_edge,
        edge_up,
        agg_up,
        aggs_of_pod,
        down,
    };
    MultiRack {
        topology: b.build(),
        servers,
        tors,
        trunk_links,
        clos: Some(clos),
    }
}

/// Which fabric a scenario runs on — the paper's multi-rack reference
/// shape or a parameterized fat-tree. Selectable from
/// `pythia_cluster::ScenarioConfig` and the experiment runner.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// The paper's leaf topology: racks of servers, all-to-all ToR trunks.
    MultiRack(MultiRackParams),
    /// A canonical k-ary fat-tree (Clos).
    FatTree(FatTreeParams),
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec::MultiRack(MultiRackParams::default())
    }
}

impl From<MultiRackParams> for TopologySpec {
    fn from(p: MultiRackParams) -> Self {
        TopologySpec::MultiRack(p)
    }
}

impl From<FatTreeParams> for TopologySpec {
    fn from(p: FatTreeParams) -> Self {
        TopologySpec::FatTree(p)
    }
}

impl TopologySpec {
    /// Build the fabric.
    pub fn build(&self) -> MultiRack {
        match self {
            TopologySpec::MultiRack(p) => build_multi_rack(p),
            TopologySpec::FatTree(p) => build_fat_tree(p),
        }
    }

    /// Number of servers the spec describes.
    pub fn num_servers(&self) -> u32 {
        match self {
            TopologySpec::MultiRack(p) => p.racks * p.servers_per_rack,
            TopologySpec::FatTree(p) => p.num_servers(),
        }
    }

    /// Short label for reports and CSVs.
    pub fn label(&self) -> String {
        match self {
            TopologySpec::MultiRack(p) => {
                format!("multirack_{}x{}", p.racks, p.servers_per_rack)
            }
            TopologySpec::FatTree(p) => format!("fattree_k{}", p.k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_adjacency() {
        let mut b = TopologyBuilder::new();
        let a = b.add_server("a", 0);
        let s = b.add_tor_switch("t", 0);
        let (ab, ba) = b.add_duplex(a, s, 1e9);
        let t = b.build();
        assert_eq!(t.out_links(a), &[ab]);
        assert_eq!(t.out_links(s), &[ba]);
        assert_eq!(t.link(ab).src, a);
        assert_eq!(t.link(ab).dst, s);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    fn multi_rack_reference_shape() {
        let mr = build_multi_rack(&MultiRackParams::default());
        assert_eq!(mr.servers.len(), 10);
        assert_eq!(mr.tors.len(), 2);
        // 10 duplex NIC cables + 2 duplex trunks = 24 directed links.
        assert_eq!(mr.topology.num_links(), 24);
        assert_eq!(mr.trunk_links.len(), 4);
        // Each ToR has 5 server-facing + 2 trunk-facing outgoing links.
        assert_eq!(mr.topology.out_links(mr.tors[0]).len(), 7);
    }

    #[test]
    fn racks_recorded_on_servers() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let racks: Vec<_> = mr
            .servers
            .iter()
            .map(|&s| mr.topology.node(s).rack().unwrap())
            .collect();
        assert_eq!(racks, vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn find_link_picks_parallel_index() {
        let mr = build_multi_rack(&MultiRackParams::default());
        let a = mr.tors[0];
        let bb = mr.tors[1];
        let l0 = mr.topology.find_link(a, bb, 0).unwrap();
        let l1 = mr.topology.find_link(a, bb, 1).unwrap();
        assert_ne!(l0, l1);
        assert!(mr.topology.find_link(a, bb, 2).is_none());
    }

    #[test]
    fn fat_tree_reference_shape() {
        let p = FatTreeParams::default(); // k = 4
        let mr = build_fat_tree(&p);
        assert_eq!(mr.servers.len(), 16);
        assert_eq!(p.num_servers(), 16);
        assert_eq!(mr.tors.len(), 8); // k pods × k/2 edge switches
        assert_eq!(mr.topology.num_nodes(), 16 + 8 + 8 + 4);
        // Directed links: 16 NIC duplex + 16 edge↔agg duplex + 16 agg↔core duplex.
        assert_eq!(mr.topology.num_links(), 2 * (16 + 16 + 16));
        assert_eq!(mr.trunk_links.len(), 2 * (16 + 16));
        // Duplex pairs are consecutive in trunk_links (cable i = 2i, 2i+1).
        for c in mr.trunk_links.chunks(2) {
            let a = mr.topology.link(c[0]);
            let bb = mr.topology.link(c[1]);
            assert_eq!((a.src, a.dst), (bb.dst, bb.src));
        }
    }

    #[test]
    fn trunk_mask_marks_exactly_the_trunk_links() {
        for mr in [
            build_multi_rack(&MultiRackParams::default()),
            build_fat_tree(&FatTreeParams::default()),
        ] {
            let mask = mr.trunk_mask();
            assert_eq!(mask.len(), mr.topology.num_links());
            for (l, _) in mr.topology.links() {
                assert_eq!(mask[l.0 as usize], mr.trunk_links.contains(&l));
            }
        }
    }

    #[test]
    fn fat_tree_clos_structure_is_consistent() {
        let mr = build_fat_tree(&FatTreeParams {
            k: 4,
            ..FatTreeParams::default()
        });
        let clos = mr.clos.as_ref().unwrap();
        assert_eq!(clos.width(), 2);
        for &srv in &mr.servers {
            let (edge, up) = clos.host_up(srv).unwrap();
            assert_eq!(mr.topology.link(up).src, srv);
            assert_eq!(mr.topology.link(up).dst, edge);
            assert!(clos.down_link(edge, srv).is_some());
            let pod = clos.pod_of_edge(edge).unwrap();
            // Edge uplinks reach every aggregation switch of the pod, in order.
            let aggs = clos.aggs_of_pod(pod);
            let ups = clos.edge_uplinks(edge);
            assert_eq!(ups.len(), aggs.len());
            for ((l, agg), want) in ups.iter().zip(aggs) {
                assert_eq!(agg, want);
                assert_eq!(mr.topology.link(*l).src, edge);
                assert_eq!(mr.topology.link(*l).dst, *agg);
                assert!(clos.down_link(*agg, edge).is_some());
                // Each aggregation switch uplinks to k/2 cores.
                let cores = clos.agg_uplinks(*agg);
                assert_eq!(cores.len(), clos.width());
                for (cl, core) in cores {
                    assert_eq!(mr.topology.link(*cl).src, *agg);
                    assert_eq!(mr.topology.link(*cl).dst, *core);
                    assert!(clos.down_link(*core, *agg).is_some());
                }
            }
        }
        // Aggregation index a of every pod shares the same core group.
        let pod0 = clos.aggs_of_pod(0);
        let pod1 = clos.aggs_of_pod(1);
        for a in 0..clos.width() {
            let g0: Vec<_> = clos.agg_uplinks(pod0[a]).iter().map(|&(_, c)| c).collect();
            let g1: Vec<_> = clos.agg_uplinks(pod1[a]).iter().map(|&(_, c)| c).collect();
            assert_eq!(g0, g1);
        }
    }

    #[test]
    fn topology_spec_builds_both_shapes() {
        let spec = TopologySpec::default();
        assert_eq!(spec.label(), "multirack_2x5");
        assert_eq!(spec.num_servers(), 10);
        assert!(spec.build().clos.is_none());
        let ft: TopologySpec = FatTreeParams {
            k: 8,
            ..FatTreeParams::default()
        }
        .into();
        assert_eq!(ft.label(), "fattree_k8");
        assert_eq!(ft.num_servers(), 128);
        let mr = ft.build();
        assert_eq!(mr.servers.len(), 128);
        assert!(mr.clos.is_some());
    }

    #[test]
    fn servers_slice_matches_node_ids() {
        let mr = build_fat_tree(&FatTreeParams::default());
        assert_eq!(mr.topology.servers(), &mr.servers[..]);
    }

    #[test]
    fn node_by_name() {
        let mr = build_multi_rack(&MultiRackParams::default());
        assert_eq!(mr.topology.node_by_name("server0"), Some(mr.servers[0]));
        assert_eq!(mr.topology.node_by_name("nope"), None);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_server("a", 0);
        let c = b.add_server("b", 0);
        b.add_link(a, c, 0.0);
    }

    #[test]
    #[should_panic]
    fn self_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_server("a", 0);
        b.add_link(a, a, 1e9);
    }
}
