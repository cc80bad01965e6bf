//! Microbenchmarks of the network substrate: max-min fair allocation at
//! various flow counts, FlowNet event-loop primitives, topology builds.
//!
//! The `fairshare` group times the retained reference allocator
//! (`max_min_fair`, what the engine ran on every recompute before the
//! incremental rate engine). The `flownet` group measures the
//! engine-facing costs: steady-state recompute, forced full recompute,
//! and single-departure perturbations, both in a fabric of tiny
//! components and in one dense component of ~2,400 flows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pythia_des::SimTime;
use pythia_netsim::fairshare::{max_min_fair, FlowPath};
use pythia_netsim::{build_multi_rack, FiveTuple, FlowNet, FlowSpec, MultiRackParams, Path};

fn fairshare_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("fairshare");
    for &n_flows in &[10usize, 100, 1000, 10_000] {
        // A 2-trunk fabric: every flow crosses a NIC link + one of two
        // shared trunks, approximating the shuffle's real structure.
        let n_links = n_flows + 2;
        let caps: Vec<f64> = (0..n_links)
            .map(|l| if l < 2 { 10e9 } else { 1e9 })
            .collect();
        let link_lists: Vec<[usize; 2]> = (0..n_flows).map(|i| [i % 2, 2 + i]).collect();
        let flows: Vec<FlowPath<'_>> = link_lists
            .iter()
            .map(|l| FlowPath {
                links: l,
                cbr_rate_bps: None,
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("max_min_fair", n_flows), &flows, |b, f| {
            b.iter(|| max_min_fair(&caps, f))
        });
    }
    g.finish();
}

fn flownet_ops(c: &mut Criterion) {
    let mr = build_multi_rack(&MultiRackParams::default());
    let topo = &mr.topology;
    let cross_path = |s: usize, d: usize, trunk: usize| {
        let up = topo.find_link(mr.servers[s], mr.tors[0], 0).unwrap();
        let tr = topo.find_link(mr.tors[0], mr.tors[1], trunk).unwrap();
        let down = topo.find_link(mr.tors[1], mr.servers[d], 0).unwrap();
        Path::new(topo, vec![up, tr, down]).unwrap()
    };
    let hundred_flows = || {
        let mut net = FlowNet::new(mr.topology.clone());
        for i in 0..100u16 {
            let s = (i as usize) % 5;
            let d = 5 + (i as usize) % 5;
            let t = FiveTuple::tcp(mr.servers[s], mr.servers[d], 40000 + i, 50060);
            net.start_flow(
                FlowSpec::tcp_transfer(t, 10_000_000_000),
                cross_path(s, d, (i % 2) as usize),
            );
        }
        net.recompute();
        net
    };
    let mut g = c.benchmark_group("flownet");
    g.bench_function("start_recompute_advance_100_flows", |b| {
        b.iter(|| {
            let mut net = FlowNet::new(mr.topology.clone());
            for i in 0..100u16 {
                let s = (i as usize) % 5;
                let d = 5 + (i as usize) % 5;
                let t = FiveTuple::tcp(mr.servers[s], mr.servers[d], 40000 + i, 50060);
                net.start_flow(
                    FlowSpec::tcp_transfer(t, 10_000_000),
                    cross_path(s, d, (i % 2) as usize),
                );
            }
            net.recompute();
            net.advance_to(SimTime::from_millis(10));
            net.next_completion()
        })
    });
    // Steady state: nothing changed since the last recompute. The
    // incremental engine proves no rates can have moved and returns in
    // O(1); the pre-incremental engine re-solved the world here.
    g.bench_function("recompute_steady_state", |b| {
        let mut net = hundred_flows();
        b.iter(|| net.recompute())
    });
    // What every steady-state recompute cost before the incremental
    // engine: a from-scratch solve of the whole network.
    g.bench_function("reference_full_solve_100_flows", |b| {
        let net = hundred_flows();
        b.iter(|| net.reference_allocation())
    });
    // Forced global solve through the in-place solver (region = world).
    g.bench_function("full_recompute_100_flows", |b| {
        let mut net = hundred_flows();
        b.iter(|| net.full_recompute())
    });
    g.finish();
}

/// The dense shape of a busy fleet: 2,400 cross-rack flows over 64
/// servers in 4 racks (152 links), all in one sharing component, so one
/// departure re-solves every flow.
fn flownet_dense_departure(c: &mut Criterion) {
    const N: usize = 2_400;
    let mr = build_multi_rack(&MultiRackParams {
        racks: 4,
        servers_per_rack: 16,
        nic_bps: 10e9,
        trunk_count: 2,
        trunk_bps: 40e9,
    });
    let topo = &mr.topology;
    let start_one = |net: &mut FlowNet, i: usize, port: u16| {
        let s = i % 64;
        let (sr, dr) = (s / 16, (s / 16 + 1 + (i / 64) % 3) % 4);
        let d = dr * 16 + (i * 13) % 16;
        let up = topo.find_link(mr.servers[s], mr.tors[sr], 0).unwrap();
        let tr = topo
            .find_link(mr.tors[sr], mr.tors[dr], (i / 192) % 2)
            .unwrap();
        let down = topo.find_link(mr.tors[dr], mr.servers[d], 0).unwrap();
        let t = FiveTuple::tcp(mr.servers[s], mr.servers[d], port, 50060);
        net.start_flow(
            FlowSpec::tcp_transfer(t, 1_000_000_000_000),
            Path::new(topo, vec![up, tr, down]).unwrap(),
        )
    };
    let mut net = FlowNet::new(topo.clone());
    for i in 0..N - 1 {
        start_one(&mut net, i, 40000 + (i / 64) as u16);
    }
    let mut victim = start_one(&mut net, N - 1, 50000);
    net.recompute();

    let mut g = c.benchmark_group("flownet");
    g.sample_size(20);
    // One flow leaves and the component is re-solved; an identical flow
    // takes its place (so the network is invariant across iterations).
    g.bench_function("departure_recompute_dense_2400_flows", |b| {
        b.iter(|| {
            net.remove_flow(victim);
            net.recompute();
            victim = start_one(&mut net, N - 1, 50000);
            net.recompute();
        })
    });
    g.finish();
}

/// 10k rack-local flows, each alone on its server→ToR link: the sharing
/// graph decomposes into 10k singleton components, so one departure
/// must cost O(1), independent of the other 9 999 flows.
fn flownet_departure(c: &mut Criterion) {
    const N: usize = 10_000;
    let mr = build_multi_rack(&MultiRackParams {
        racks: 1,
        servers_per_rack: N as u32,
        nic_bps: 1e9,
        trunk_count: 1,
        trunk_bps: 10e9,
    });
    let topo = &mr.topology;
    let start_one = |net: &mut FlowNet, i: usize, port: u16| {
        let up = topo.find_link(mr.servers[i], mr.tors[0], 0).unwrap();
        let t = FiveTuple::tcp(mr.servers[i], mr.tors[0], port, 50060);
        net.start_flow(
            FlowSpec::tcp_transfer(t, 1_000_000_000_000),
            Path::new(topo, vec![up]).unwrap(),
        )
    };
    let mut net = FlowNet::new(topo.clone());
    for i in 0..N {
        start_one(&mut net, i, 40000);
    }
    net.recompute();

    let mut g = c.benchmark_group("flownet_10k");
    g.sample_size(20);
    // One flow leaves, rates are refreshed, and an identical flow takes
    // its place (so the network size is invariant across iterations):
    // two incremental recomputes over a single-link region.
    let mut victim = start_one(&mut net, 0, 40001);
    net.recompute();
    g.bench_function("recompute_after_single_departure", |b| {
        b.iter(|| {
            net.remove_flow(victim);
            net.recompute();
            victim = start_one(&mut net, 0, 40001);
            net.recompute();
        })
    });
    // The pre-incremental engine's cost for the same event: re-solve all
    // 10k flows from scratch.
    g.bench_function("reference_full_solve_10k_flows", |b| {
        b.iter(|| net.reference_allocation())
    });
    g.finish();
}

fn topology_build(c: &mut Criterion) {
    c.bench_function("build_multi_rack_8x16", |b| {
        b.iter(|| {
            build_multi_rack(&MultiRackParams {
                racks: 8,
                servers_per_rack: 16,
                nic_bps: 10e9,
                trunk_count: 4,
                trunk_bps: 40e9,
            })
        })
    });
}

criterion_group!(
    benches,
    fairshare_scaling,
    flownet_ops,
    flownet_dense_departure,
    flownet_departure,
    topology_build
);
criterion_main!(benches);
