//! NetFlow-style per-flow records and aggregations.
//!
//! The cluster engine appends one record per completed shuffle flow; the
//! experiments aggregate them (per-trunk volumes, flow-size distributions,
//! durations) — the same post-processing the paper runs on its NetFlow
//! traces (§V-C).

use pythia_des::SimTime;
use pythia_netsim::{FlowReport, LinkId, NodeId, Topology};
use pythia_snapshot::{Persist, SectionReader, SectionWriter, SnapshotError};

/// One completed shuffle flow.
#[derive(Debug, Clone)]
pub struct ShuffleFlowRecord {
    /// Source network node (raw id).
    pub src_node: u32,
    /// Destination network node (raw id).
    pub dst_node: u32,
    /// Source transport port (50060 for shuffle flows).
    pub src_port: u16,
    /// Destination transport port (the copier's ephemeral port).
    pub dst_port: u16,
    /// Wire bytes transferred.
    pub bytes: f64,
    /// Flow start, seconds.
    pub start_secs: f64,
    /// Flow end, seconds.
    pub end_secs: f64,
    /// The inter-rack trunk link the flow crossed, if any.
    pub trunk_link: Option<u32>,
}

impl ShuffleFlowRecord {
    /// Build from a [`FlowReport`], classifying the trunk link crossed:
    /// the first link of the path, in path order, that `is_trunk` marks
    /// (indexed by `LinkId.0`, as `MultiRack::trunk_mask` builds it).
    pub fn from_report(report: &FlowReport, is_trunk: &[bool]) -> ShuffleFlowRecord {
        let trunk = report
            .path
            .links()
            .iter()
            .find(|l| is_trunk[l.0 as usize])
            .map(|l| l.0);
        ShuffleFlowRecord {
            src_node: report.spec.tuple.src.0,
            dst_node: report.spec.tuple.dst.0,
            src_port: report.spec.tuple.src_port,
            dst_port: report.spec.tuple.dst_port,
            bytes: report.transferred_bytes,
            start_secs: report.started_at.as_secs_f64(),
            end_secs: report.ended_at.as_secs_f64(),
            trunk_link: trunk,
        }
    }

    /// Flow duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }

    /// Mean throughput in bits/sec (0 for zero-duration flows).
    pub fn mean_rate_bps(&self) -> f64 {
        let d = self.duration_secs();
        if d > 0.0 {
            self.bytes * 8.0 / d
        } else {
            0.0
        }
    }
}

/// The collected trace of one run.
#[derive(Debug, Default, Clone)]
pub struct FlowTrace {
    records: Vec<ShuffleFlowRecord>,
}

impl FlowTrace {
    /// Append a completed-flow record.
    pub fn push(&mut self, r: ShuffleFlowRecord) {
        self.records.push(r);
    }

    /// All records, in completion order.
    pub fn records(&self) -> &[ShuffleFlowRecord] {
        &self.records
    }

    /// Number of recorded flows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total wire bytes across all records.
    pub fn total_bytes(&self) -> f64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Bytes carried per trunk link — the load-balance view of a run.
    pub fn bytes_per_trunk(&self, trunk_links: &[LinkId]) -> Vec<(LinkId, f64)> {
        let sums = self.sums_by_link(trunk_links);
        trunk_links
            .iter()
            .map(|&t| (t, sums[t.0 as usize]))
            .collect()
    }

    /// Bytes per link of `links`, indexed by `LinkId.0`, in one pass over
    /// the records. Each link sums its records in record order from the
    /// empty sum (`-0.0`), exactly as `Iterator::sum` over that link's
    /// records would, so the results are bitwise those of a per-link
    /// filter-and-sum. Entries of links not asked for stay `-0.0`.
    fn sums_by_link<'a>(&self, links: impl IntoIterator<Item = &'a LinkId>) -> Vec<f64> {
        let member = link_mask(links);
        let mut sums = vec![-0.0; member.len()];
        for r in &self.records {
            if let Some(t) = r.trunk_link {
                if member.get(t as usize) == Some(&true) {
                    sums[t as usize] += r.bytes;
                }
            }
        }
        sums
    }

    /// Imbalance across trunks: max/mean of per-trunk bytes (1.0 =
    /// perfectly balanced). Only counts trunks in the given set.
    pub fn trunk_imbalance(&self, trunk_links: &[LinkId]) -> f64 {
        let per = self.bytes_per_trunk(trunk_links);
        let total: f64 = per.iter().map(|&(_, b)| b).sum();
        if total <= 0.0 || per.is_empty() {
            return 1.0;
        }
        let mean = total / per.len() as f64;
        per.iter().map(|&(_, b)| b).fold(0.0, f64::max) / mean
    }

    /// Direction-aware imbalance: trunk links are grouped by direction
    /// (parallel cables between the same switch pair form one group); the
    /// result is the byte-weighted mean of per-group max/mean ratios.
    /// A shuffle whose traffic flows mostly one way is not penalized for
    /// leaving the reverse-direction links idle.
    ///
    /// On a fat-tree no two cables join the same switch pair, so every
    /// group holds one link and the result is 1.0 by construction; only
    /// fabrics with parallel trunks (the multi-rack shape) can show
    /// imbalance here.
    pub fn trunk_imbalance_grouped(&self, groups: &[Vec<LinkId>]) -> f64 {
        let sums = self.sums_by_link(groups.iter().flatten());
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for g in groups {
            if g.is_empty() {
                continue;
            }
            let per = g.iter().map(|t| sums[t.0 as usize]);
            let total: f64 = per.clone().sum();
            if total <= 0.0 {
                continue;
            }
            let mean = total / g.len() as f64;
            let imb = per.fold(0.0, f64::max) / mean;
            weighted += imb * total;
            weight += total;
        }
        if weight > 0.0 {
            weighted / weight
        } else {
            1.0
        }
    }

    /// Cumulative bytes sourced by `node` over time, rebuilt from flow end
    /// records (coarser than the live probe; used for cross-checks).
    pub fn cumulative_from(&self, node: NodeId) -> Vec<(SimTime, f64)> {
        let mut events: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter(|r| r.src_node == node.0)
            .map(|r| (r.end_secs, r.bytes))
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut acc = 0.0;
        events
            .into_iter()
            .map(|(t, b)| {
                acc += b;
                (SimTime::from_secs_f64(t), acc)
            })
            .collect()
    }

    /// Summary of flow durations in seconds.
    pub fn duration_summary(&self) -> Option<crate::summary::Summary> {
        if self.records.is_empty() {
            return None;
        }
        let d: Vec<f64> = self.records.iter().map(|r| r.duration_secs()).collect();
        Some(crate::summary::Summary::of(&d))
    }

    /// Check a topology invariant: every record's trunk id is in the set.
    pub fn validate_trunks(&self, topo: &Topology, trunk_links: &[LinkId]) -> bool {
        let _ = topo;
        let known = link_mask(trunk_links);
        self.records.iter().all(|r| {
            r.trunk_link
                .is_none_or(|t| known.get(t as usize) == Some(&true))
        })
    }
}

/// Membership of `links`, indexed by `LinkId.0` and as long as the
/// largest id asked for requires.
fn link_mask<'a>(links: impl IntoIterator<Item = &'a LinkId>) -> Vec<bool> {
    let mut mask = Vec::new();
    for l in links {
        let i = l.0 as usize;
        if mask.len() <= i {
            mask.resize(i + 1, false);
        }
        mask[i] = true;
    }
    mask
}

impl Persist for ShuffleFlowRecord {
    fn put(&self, w: &mut SectionWriter) {
        self.src_node.put(w);
        self.dst_node.put(w);
        self.src_port.put(w);
        self.dst_port.put(w);
        self.bytes.put(w);
        self.start_secs.put(w);
        self.end_secs.put(w);
        self.trunk_link.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(ShuffleFlowRecord {
            src_node: u32::get(r)?,
            dst_node: u32::get(r)?,
            src_port: u16::get(r)?,
            dst_port: u16::get(r)?,
            bytes: f64::get(r)?,
            start_secs: f64::get(r)?,
            end_secs: f64::get(r)?,
            trunk_link: Option::<u32>::get(r)?,
        })
    }
}

impl Persist for FlowTrace {
    fn put(&self, w: &mut SectionWriter) {
        self.records.put(w);
    }
    fn get(r: &mut SectionReader) -> Result<Self, SnapshotError> {
        Ok(FlowTrace {
            records: Vec::<ShuffleFlowRecord>::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_netsim::{
        build_fat_tree, FatTreeParams, FiveTuple, FlowId, FlowSpec, MultiRack, Path,
    };

    fn rec(src: u32, trunk: Option<u32>, bytes: f64, start: f64, end: f64) -> ShuffleFlowRecord {
        ShuffleFlowRecord {
            src_node: src,
            dst_node: 99,
            src_port: 50060,
            dst_port: 40000,
            bytes,
            start_secs: start,
            end_secs: end,
            trunk_link: trunk,
        }
    }

    fn report(mr: &MultiRack, links: Vec<LinkId>) -> FlowReport {
        let path = Path::new(&mr.topology, links).unwrap();
        let tuple = FiveTuple::tcp(path.src(), path.dst(), 50060, 40000);
        FlowReport {
            id: FlowId(0),
            spec: FlowSpec::tcp_transfer(tuple, 1000),
            path,
            transferred_bytes: 1000.0,
            started_at: SimTime::ZERO,
            ended_at: SimTime::from_secs_f64(1.0),
        }
    }

    /// Every shortest path from server `a` to server `b` of a fat-tree,
    /// built from its Clos metadata.
    fn clos_paths(mr: &MultiRack, a: NodeId, b: NodeId) -> Vec<Vec<LinkId>> {
        let clos = mr.clos.as_ref().unwrap();
        let (ea, up) = clos.host_up(a).unwrap();
        let (eb, _) = clos.host_up(b).unwrap();
        let down = clos.down_link(eb, b).unwrap();
        if ea == eb {
            return vec![vec![up, down]];
        }
        let aggs_b = clos.aggs_of_pod(clos.pod_of_edge(eb).unwrap());
        let mut paths = Vec::new();
        for &(e_up, agg) in clos.edge_uplinks(ea) {
            if let Some(a_dn) = clos.down_link(agg, eb) {
                paths.push(vec![up, e_up, a_dn, down]);
                continue;
            }
            for &(a_up, core) in clos.agg_uplinks(agg) {
                for &agg_b in aggs_b {
                    if let Some(c_dn) = clos.down_link(core, agg_b) {
                        let a_dn = clos.down_link(agg_b, eb).unwrap();
                        paths.push(vec![up, e_up, a_up, c_dn, a_dn, down]);
                    }
                }
            }
        }
        paths
    }

    #[test]
    fn from_report_takes_first_trunk_in_path_order() {
        let mr = build_fat_tree(&FatTreeParams::default());
        let mask = mr.trunk_mask();
        let (a, b) = (mr.servers[0], mr.servers[mr.servers.len() - 1]);
        let path = clos_paths(&mr, a, b).swap_remove(0);
        assert_eq!(path.len(), 6); // cross-pod: four trunk hops
        let r = ShuffleFlowRecord::from_report(&report(&mr, path.clone()), &mask);
        assert_eq!(r.trunk_link, Some(path[1].0));
    }

    #[test]
    fn from_report_same_rack_has_no_trunk() {
        let mr = build_fat_tree(&FatTreeParams::default());
        let paths = clos_paths(&mr, mr.servers[0], mr.servers[1]);
        assert_eq!(paths.len(), 1);
        let r = ShuffleFlowRecord::from_report(&report(&mr, paths[0].clone()), &mr.trunk_mask());
        assert_eq!(r.trunk_link, None);
    }

    #[test]
    fn from_report_matches_trunk_list_scan_on_every_fat_tree_pair() {
        let mr = build_fat_tree(&FatTreeParams::default());
        let mask = mr.trunk_mask();
        let mut checked = 0;
        for &a in &mr.servers {
            for &b in &mr.servers {
                if a == b {
                    continue;
                }
                for links in clos_paths(&mr, a, b) {
                    let scan = links
                        .iter()
                        .find(|l| mr.trunk_links.contains(l))
                        .map(|l| l.0);
                    let r = ShuffleFlowRecord::from_report(&report(&mr, links), &mask);
                    assert_eq!(r.trunk_link, scan);
                    checked += 1;
                }
            }
        }
        // k=4: 16 same-edge, 32 same-pod × 2 aggs, 192 cross-pod × 4 cores.
        assert_eq!(checked, 16 + 32 * 2 + 192 * 4);
    }

    #[test]
    fn grouped_imbalance_per_trunk_bytes_and_validation() {
        let mut t = FlowTrace::default();
        t.push(rec(0, Some(10), 300.0, 0.0, 1.0));
        t.push(rec(0, Some(12), 100.0, 0.0, 1.0));
        t.push(rec(1, Some(10), 100.0, 0.0, 1.0));
        t.push(rec(1, None, 999.0, 0.0, 1.0));
        let groups = vec![vec![LinkId(10), LinkId(11)], vec![LinkId(12)], vec![]];
        // Group {10, 11}: 400 vs 0 → 2.0 weighted by 400; {12}: 1.0 by 100.
        let want = (2.0 * 400.0 + 100.0) / 500.0;
        assert_eq!(t.trunk_imbalance_grouped(&groups), want);
        let per = t.bytes_per_trunk(&[LinkId(11), LinkId(10), LinkId(10)]);
        assert_eq!(
            per,
            vec![(LinkId(11), 0.0), (LinkId(10), 400.0), (LinkId(10), 400.0)]
        );
        // An untouched trunk holds the empty sum, sign and all.
        assert!(per[0].1.is_sign_negative());
        let topo = build_fat_tree(&FatTreeParams::default()).topology;
        assert!(t.validate_trunks(&topo, &[LinkId(10), LinkId(12)]));
        assert!(!t.validate_trunks(&topo, &[LinkId(10)]));
        assert!(!t.validate_trunks(&topo, &[]));
    }

    #[test]
    fn aggregates_per_trunk() {
        let mut t = FlowTrace::default();
        t.push(rec(0, Some(10), 100.0, 0.0, 1.0));
        t.push(rec(0, Some(10), 50.0, 0.0, 1.0));
        t.push(rec(1, Some(11), 150.0, 0.0, 1.0));
        t.push(rec(1, None, 25.0, 0.0, 1.0)); // intra-rack
        let per = t.bytes_per_trunk(&[LinkId(10), LinkId(11)]);
        assert_eq!(per[0], (LinkId(10), 150.0));
        assert_eq!(per[1], (LinkId(11), 150.0));
        assert_eq!(t.total_bytes(), 325.0);
        assert!((t.trunk_imbalance(&[LinkId(10), LinkId(11)]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_collision() {
        let mut t = FlowTrace::default();
        t.push(rec(0, Some(10), 300.0, 0.0, 1.0));
        t.push(rec(1, Some(10), 300.0, 0.0, 1.0));
        // Everything on trunk 10, nothing on 11 → max/mean = 2.
        assert!((t.trunk_imbalance(&[LinkId(10), LinkId(11)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_is_monotone() {
        let mut t = FlowTrace::default();
        t.push(rec(0, None, 100.0, 0.0, 2.0));
        t.push(rec(0, None, 50.0, 0.0, 1.0));
        let c = t.cumulative_from(NodeId(0));
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].1, 50.0);
        assert_eq!(c[1].1, 150.0);
        assert!(c[0].0 < c[1].0);
    }

    #[test]
    fn rate_and_duration() {
        let r = rec(0, None, 1000.0, 1.0, 3.0);
        assert_eq!(r.duration_secs(), 2.0);
        assert_eq!(r.mean_rate_bps(), 4000.0);
    }

    #[test]
    fn empty_trace_duration_summary_none() {
        assert!(FlowTrace::default().duration_summary().is_none());
    }
}
