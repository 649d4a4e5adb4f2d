//! Resilience-layer integration tests: zero-fault bit-identity, corruption
//! recovery via NACK/retransmit, link outages, the hard-kill watchdog, and
//! the structured injection errors.

use emesh::flit::Packet;
use emesh::memif::MemifConfig;
use emesh::mesh::{Mesh, MeshConfig, MeshError, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::{MeshFaultConfig, RouterKill};

fn cfg(policy: RoutingPolicy) -> MeshConfig {
    MeshConfig {
        topology: Topology::square(16, MemifPlacement::SingleCorner),
        t_r: 1,
        policy,
        memif: MemifConfig::default(),
        buffer_depth: 2,
        max_cycles: 1 << 24,
    }
}

/// Every node sends its own row's addresses to the corner memif.
fn inject_all_to_corner(m: &mut Mesh, elements_per_node: u64) {
    for n in 0..16u32 {
        for e in 0..elements_per_node {
            let addr = u64::from(n) * 32 + e;
            m.inject_packet(
                n,
                &Packet::with_header(0, u64::from(n) * 32 + e, vec![addr]),
            );
        }
    }
}

#[test]
fn zero_rate_fault_layer_is_bit_identical() {
    let run = |with_layer: bool| {
        let mut m = Mesh::new(cfg(RoutingPolicy::MinimalAdaptive));
        if with_layer {
            m.enable_faults(MeshFaultConfig::default());
        }
        inject_all_to_corner(&mut m, 32);
        m.run().expect("clean run")
    };
    let plain = run(false);
    let layered = run(true);
    assert_eq!(plain.cycles, layered.cycles);
    assert_eq!(plain.energy, layered.energy);
    assert_eq!(plain.sink_delivered, layered.sink_delivered);
    assert_eq!(plain.router_forwards, layered.router_forwards);
    let (a, b) = (plain.memif_stats[0], layered.memif_stats[0]);
    assert_eq!(a.flits_accepted, b.flits_accepted);
    assert_eq!(a.elements, b.elements);
    assert_eq!(a.rows_written, b.rows_written);
    assert_eq!(a.dram_done, b.dram_done);
    assert_eq!(a.last_accept, b.last_accept);
    assert_eq!(b.nacked, 0);
    let stats = layered.faults.expect("layer attached");
    assert_eq!(stats, Default::default(), "zero-rate layer fired nothing");
}

#[test]
fn corruption_is_recovered_by_retransmission() {
    let mut m = Mesh::new(cfg(RoutingPolicy::Xy));
    m.enable_faults(MeshFaultConfig {
        seed: 42,
        corrupt_rate: 0.02,
        max_retransmits: 16,
        ..Default::default()
    });
    inject_all_to_corner(&mut m, 32);
    let res = m.run().expect("recovers under noise");
    let stats = res.faults.expect("layer attached");
    assert!(stats.corrupted_flits > 0, "2% over ~3k traversals must hit");
    assert!(stats.nacks > 0);
    assert!(stats.retransmits > 0);
    assert_eq!(stats.dropped_elements, 0, "retry budget ample: {stats:?}");
    // Every element eventually staged cleanly.
    assert_eq!(res.memif_stats[0].elements, 16 * 32);
    assert_eq!(res.memif_stats[0].rows_written, 16);
    assert_eq!(res.memif_stats[0].nacked, stats.nacks);
}

#[test]
fn faulty_runs_are_deterministic() {
    let run = || {
        let mut m = Mesh::new(cfg(RoutingPolicy::MinimalAdaptive));
        m.enable_faults(MeshFaultConfig {
            seed: 7,
            corrupt_rate: 0.01,
            link_down_rate: 0.001,
            max_retransmits: 16,
            ..Default::default()
        });
        inject_all_to_corner(&mut m, 16);
        let res = m.run().expect("recovers");
        (res.cycles, res.energy, res.faults.unwrap())
    };
    assert_eq!(run(), run());
}

#[test]
fn corruption_costs_cycles_and_energy() {
    let baseline = {
        let mut m = Mesh::new(cfg(RoutingPolicy::Xy));
        inject_all_to_corner(&mut m, 32);
        m.run().unwrap()
    };
    let noisy = {
        let mut m = Mesh::new(cfg(RoutingPolicy::Xy));
        m.enable_faults(MeshFaultConfig {
            seed: 9,
            corrupt_rate: 0.05,
            max_retransmits: 32,
            ..Default::default()
        });
        inject_all_to_corner(&mut m, 32);
        m.run().unwrap()
    };
    assert!(noisy.cycles > baseline.cycles);
    assert!(noisy.energy.injections > baseline.energy.injections);
    assert_eq!(noisy.memif_stats[0].elements, 16 * 32, "no data lost");
}

#[test]
fn link_outages_delay_but_complete() {
    let mut m = Mesh::new(cfg(RoutingPolicy::Xy));
    m.enable_faults(MeshFaultConfig {
        seed: 3,
        link_down_rate: 0.01,
        link_down_cycles: 32,
        ..Default::default()
    });
    inject_all_to_corner(&mut m, 16);
    let res = m.run().expect("outages are transient");
    let stats = res.faults.unwrap();
    assert!(stats.link_down_events > 0);
    assert_eq!(res.memif_stats[0].elements, 16 * 16);
}

#[test]
fn watchdog_converts_hard_kill_into_diagnostic() {
    // XY routing from (3,3) to the (0,0) memif goes west along y = 3 first;
    // killing router 13 = (1,3) wedges that path. With retransmission
    // disabled nothing can recover: the sender at 14 probes its dead
    // neighbour forever — a livelock the watchdog must convert into a
    // structured report instead of a hang.
    let mut m = Mesh::new(cfg(RoutingPolicy::Xy));
    m.enable_faults(MeshFaultConfig {
        router_kills: vec![RouterKill {
            router: 13,
            at_cycle: 0,
        }],
        retransmit: false,
        watchdog_cycles: 500,
        ..Default::default()
    });
    for e in 0..4u64 {
        m.inject_packet(15, &Packet::with_header(0, e, vec![e]));
    }
    match m.run() {
        Err(MeshError::NoProgress { at_cycle, report }) => {
            assert!(at_cycle < 5_000, "watchdog fired late: {at_cycle}");
            assert_eq!(report.killed_routers, vec![13]);
            assert!(report.in_flight + report.pending_inject > 0);
            assert!(!report.stuck_routers.is_empty());
            assert!(report.stats.probes > 0, "senders were probing: {report:?}");
        }
        other => panic!("expected NoProgress, got {other:?}"),
    }
}

#[test]
fn injection_at_out_of_range_node_is_structured() {
    let mut m = Mesh::new(cfg(RoutingPolicy::Xy));
    let err = m
        .try_inject_packet(99, &Packet::with_header(0, 0, vec![1]))
        .unwrap_err();
    assert_eq!(
        err,
        MeshError::BadInjection {
            node: 99,
            nodes: 16
        }
    );
}

#[test]
fn injection_at_killed_node_is_structured() {
    let mut m = Mesh::new(cfg(RoutingPolicy::Xy));
    m.enable_faults(MeshFaultConfig {
        router_kills: vec![RouterKill {
            router: 5,
            at_cycle: 0,
        }],
        ..Default::default()
    });
    let err = m
        .try_inject_packet(5, &Packet::with_header(0, 0, vec![1]))
        .unwrap_err();
    assert_eq!(
        err,
        MeshError::DeadNode {
            node: 5,
            killed_at: 0
        }
    );
    // A live node still injects fine.
    m.try_inject_packet(15, &Packet::with_header(0, 1, vec![2]))
        .expect("live node");
}
