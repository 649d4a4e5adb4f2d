//! Pinned digests of every deterministic mesh observable.
//!
//! Each case runs one mesh configuration to completion and folds the full
//! observable bundle — completion cycle, energy counters, memory-interface
//! and fault statistics, the latency histogram, per-node sink counts, last
//! delivery cycles and payload words, the per-router forward heatmap and,
//! when telemetry is attached, the registry's `metrics_json` — into one
//! FNV-1a hash. The expected hashes are literals: any change to what the
//! executor computes, in any field, fails the case that exercises it.
//!
//! The grid covers three Table III-style transpose sizes × both routing
//! policies × fault injection on/off, fully instrumented transposes
//! (telemetry + latency, with and without faults), uniform-random
//! permutation traffic, and fixed-seed arbitrary traffic (mixed packet
//! sizes, arbitrary src/dst pairs) with and without the instrumented fault
//! layer.
//!
//! Re-pin only after an intentional behaviour change: the failure message
//! lists every case with its actual digest in the table's format.

use emesh::flit::Packet;
use emesh::mesh::{Mesh, MeshConfig, MeshRunResult, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::{load_transpose, load_uniform_random};
use emesh::MeshFaultConfig;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every observable of a finished run.
fn digest(mesh: &Mesh, res: &MeshRunResult) -> u64 {
    let nodes = res.sink_delivered.len() as u32;
    let words: Vec<&[u64]> = (0..nodes).map(|n| mesh.sink_words(n)).collect();
    let metrics = mesh.telemetry().map(|reg| reg.metrics_json());
    let bundle = format!(
        "cycles={}|energy={:?}|memif={:?}|faults={:?}|latency={:?}|\
         sink_delivered={:?}|sink_last_cycle={:?}|sink_words={:?}|\
         router_forwards={:?}|metrics={:?}",
        res.cycles,
        res.energy,
        res.memif_stats,
        res.faults,
        res.latency,
        res.sink_delivered,
        res.sink_last_cycle,
        words,
        res.router_forwards,
        metrics,
    );
    fnv1a(bundle.as_bytes())
}

/// Compare computed digests against the pinned table; on any mismatch,
/// fail with the whole table re-rendered from the actual values.
fn check(pinned: &[(&str, u64)], actual: &[(String, u64)]) {
    assert_eq!(pinned.len(), actual.len(), "case count changed");
    let mismatched: Vec<&str> = pinned
        .iter()
        .zip(actual)
        .filter(|((pn, pd), (an, ad))| pn != an || pd != ad)
        .map(|((pn, _), _)| *pn)
        .collect();
    if !mismatched.is_empty() {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        panic!("observable digests changed for {mismatched:?}; actual table:\n{table}");
    }
}

fn policy_name(policy: RoutingPolicy) -> &'static str {
    match policy {
        RoutingPolicy::Xy => "xy",
        RoutingPolicy::MinimalAdaptive => "adaptive",
    }
}

fn run_transpose(procs: usize, row_len: usize, policy: RoutingPolicy, faults: bool) -> u64 {
    let mut mesh = load_transpose(
        MeshConfig::table3(procs, 1).with_policy(policy),
        procs,
        row_len,
    );
    mesh.collect_sink_words(true);
    if faults {
        mesh.enable_faults(MeshFaultConfig {
            seed: 7,
            corrupt_rate: 0.01,
            max_retransmits: 16,
            ..Default::default()
        });
    }
    let res = mesh.run().expect("transpose completes");
    digest(&mesh, &res)
}

/// Every transpose element heads for the north-west memory corner, so the
/// west-first adaptive arm always takes the dimension-order hop and each
/// `xy`/`adaptive` pair pins the same digest.
const TRANSPOSE_GRID: &[(&str, u64)] = &[
    ("16x16/xy/clean", 0xf3e75c5341f0544c),
    ("16x16/xy/faults", 0x51401b47ba7f8567),
    ("16x16/adaptive/clean", 0xf3e75c5341f0544c),
    ("16x16/adaptive/faults", 0x51401b47ba7f8567),
    ("16x64/xy/clean", 0x600d32d5e9515145),
    ("16x64/xy/faults", 0x3a86ba13eb2d4a43),
    ("16x64/adaptive/clean", 0x600d32d5e9515145),
    ("16x64/adaptive/faults", 0x3a86ba13eb2d4a43),
    ("64x32/xy/clean", 0x8e821de860381279),
    ("64x32/xy/faults", 0x52beccd3ec53468c),
    ("64x32/adaptive/clean", 0x8e821de860381279),
    ("64x32/adaptive/faults", 0x52beccd3ec53468c),
];

/// Golden grid: 3 sizes × 2 policies × faults on/off.
#[test]
fn transpose_grid_digests_are_pinned() {
    let mut actual = Vec::new();
    for (procs, row_len) in [(16, 16), (16, 64), (64, 32)] {
        for policy in [RoutingPolicy::Xy, RoutingPolicy::MinimalAdaptive] {
            for faults in [false, true] {
                let name = format!(
                    "{procs}x{row_len}/{}/{}",
                    policy_name(policy),
                    if faults { "faults" } else { "clean" }
                );
                actual.push((name, run_transpose(procs, row_len, policy, faults)));
            }
        }
    }
    check(TRANSPOSE_GRID, &actual);
}

/// Telemetry registry, latency histogram and (when `faults` is set)
/// corruption + transient link outages + retransmission, all attached at
/// once.
fn run_instrumented(faults: bool) -> u64 {
    let cfg = MeshConfig::table3(16, 2).with_policy(RoutingPolicy::MinimalAdaptive);
    let mut mesh = load_transpose(cfg, 16, 48);
    mesh.collect_sink_words(true);
    mesh.enable_telemetry();
    mesh.track_latency(4, 512);
    if faults {
        mesh.enable_faults(MeshFaultConfig {
            seed: 11,
            corrupt_rate: 0.008,
            link_down_rate: 0.002,
            link_down_cycles: 6,
            max_retransmits: 32,
            nack_delay: 5,
            ..Default::default()
        });
    }
    let res = mesh.run().expect("instrumented transpose completes");
    if faults {
        let stats = res.faults.expect("fault layer attached");
        assert!(stats.corrupted_flits > 0 && stats.link_down_events > 0);
    }
    digest(&mesh, &res)
}

const INSTRUMENTED: &[(&str, u64)] = &[
    ("instrumented/clean", 0xf6216136757d133c),
    ("instrumented/faults", 0xfe311ffc61e84033),
];

#[test]
fn instrumented_transpose_digests_are_pinned() {
    let actual: Vec<(String, u64)> = [false, true]
        .into_iter()
        .map(|faults| {
            let name = format!("instrumented/{}", if faults { "faults" } else { "clean" });
            (name, run_instrumented(faults))
        })
        .collect();
    check(INSTRUMENTED, &actual);
}

const UNIFORM_RANDOM: &[(&str, u64)] = &[
    ("uniform/xy", 0xca0da531dcfb9612),
    ("uniform/adaptive", 0x9033637dd9cb3520),
];

/// Uniform-random permutation traffic: sink delivery and adaptive
/// contention, far harder on the router state than the transpose.
#[test]
fn uniform_random_digests_are_pinned() {
    let actual: Vec<(String, u64)> = [RoutingPolicy::Xy, RoutingPolicy::MinimalAdaptive]
        .into_iter()
        .map(|policy| {
            let cfg = MeshConfig::table3(64, 1).with_policy(policy);
            let (mut mesh, _) = load_uniform_random(cfg, 8, 3, 42);
            mesh.collect_sink_words(true);
            let res = mesh.run().expect("random traffic drains");
            assert!(res.sink_delivered.iter().sum::<u64>() > 0);
            (
                format!("uniform/{}", policy_name(policy)),
                digest(&mesh, &res),
            )
        })
        .collect();
    check(UNIFORM_RANDOM, &actual);
}

/// splitmix64: the fixed-seed generator for the arbitrary-traffic cases.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const N_PACKETS: usize = 40;

/// Arbitrary traffic on a 16-node mesh: packet `i` goes from a random
/// source to a random destination (self-traffic skipped) with 1–5 payload
/// words. Destination 0 is the memory interface, so those packets carry
/// DRAM addresses. With `fault_seed`, the fully instrumented executor:
/// corruption, transient link outages, retransmission, telemetry and
/// latency tracking.
fn run_arbitrary(seed: u64, policy: RoutingPolicy, fault_seed: Option<u64>) -> u64 {
    let nodes = 16u32;
    let cfg = MeshConfig::paper_default()
        .with_topology(Topology::square(
            nodes as usize,
            MemifPlacement::SingleCorner,
        ))
        .with_t_r(1)
        .with_policy(policy)
        .with_buffers(2)
        .with_max_cycles(1 << 22);
    let mut mesh = Mesh::new(cfg);
    mesh.collect_sink_words(true);
    if let Some(seed) = fault_seed {
        mesh.enable_faults(MeshFaultConfig {
            seed,
            corrupt_rate: 0.01,
            link_down_rate: 0.003,
            link_down_cycles: 5,
            max_retransmits: 64,
            nack_delay: 3,
            ..Default::default()
        });
        mesh.enable_telemetry();
        mesh.track_latency(2, 1024);
    }
    let mut state = seed;
    for i in 0..N_PACKETS as u64 {
        let src = (splitmix(&mut state) % 256) as u32 % nodes;
        let dst = (splitmix(&mut state) % 256) as u32 % nodes;
        let words = splitmix(&mut state) % 5 + 1;
        if src == dst {
            continue;
        }
        let payload: Vec<u64> = (0..words).map(|k| k + i * 31).collect();
        mesh.inject_packet(src, &Packet::with_header(dst, i, payload));
    }
    let res = mesh.run().expect("arbitrary traffic drains");
    digest(&mesh, &res)
}

const ARBITRARY: &[(&str, u64)] = &[
    ("arbitrary/1/xy", 0xc919588863635217),
    ("arbitrary/2/adaptive", 0x6e0269f5b5a338cf),
    ("arbitrary/3/xy", 0xbaf8837e70de12e0),
    ("arbitrary/4/adaptive", 0x29d3b98ef1e66305),
    ("arbitrary/5/xy/faults", 0x72ba8f1bd4c8d65d),
    ("arbitrary/6/adaptive/faults", 0xee435505fc85c045),
    ("arbitrary/7/xy/faults", 0x6bd5be78c0fafdc3),
    ("arbitrary/8/adaptive/faults", 0x1fe0281417f68a08),
];

#[test]
fn arbitrary_traffic_digests_are_pinned() {
    let actual: Vec<(String, u64)> = (1..=8u64)
        .map(|seed| {
            let policy = if seed % 2 == 0 {
                RoutingPolicy::MinimalAdaptive
            } else {
                RoutingPolicy::Xy
            };
            let faulted = seed > 4;
            let fault_seed = faulted.then_some(seed * 131);
            let name = format!(
                "arbitrary/{seed}/{}{}",
                policy_name(policy),
                if faulted { "/faults" } else { "" }
            );
            (name, run_arbitrary(seed, policy, fault_seed))
        })
        .collect();
    check(ARBITRARY, &actual);
}
