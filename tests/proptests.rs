//! Property-based tests over the core invariants:
//!
//! * any slot→node map compiles to collision-free CPs whose SCA reproduces
//!   the map's data exactly and gap-free;
//! * scatter∘gather is the identity on payloads;
//! * the FFT agrees with the naive DFT on random signals;
//! * CPs survive the 48-bit wire encoding;
//! * the mesh delivers every packet of random traffic exactly once.

use fft::complex::max_error;
use fft::{dft_reference, fft_in_place, Complex64};
use proptest::prelude::*;
use pscan::compiler::{CpCompiler, GatherSpec, ScatterSpec};
use pscan::cp::CommProgram;
use pscan::network::{Pscan, PscanConfig};

/// A random slot→node map over `nodes` nodes with `slots` slots.
fn slot_map(nodes: usize, slots: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..nodes, slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_gather_spec_is_collision_free_and_exact(
        map in slot_map(8, 96),
    ) {
        let nodes = 8;
        let spec = GatherSpec { slot_source: map.clone() };
        let cps = CpCompiler.compile_gather(&spec, nodes);
        prop_assert!(CpCompiler::audit_disjoint(&cps).is_ok());

        // Node n's data: its global slot indices, so the coalesced burst
        // must be 0,1,2,... in slot order.
        let mut data = vec![Vec::new(); nodes];
        for (slot, &n) in map.iter().enumerate() {
            data[n].push(slot as u64);
        }
        let pscan = Pscan::new(PscanConfig { nodes, ..Default::default() });
        let out = pscan.gather(&spec, &data).unwrap();
        prop_assert_eq!(out.utilization, 1.0, "SCA must be gap-free");
        for (slot, w) in out.received.iter().enumerate() {
            prop_assert_eq!(w.unwrap(), slot as u64);
        }
    }

    #[test]
    fn scatter_then_gather_roundtrips(
        map in slot_map(6, 64),
    ) {
        let nodes = 6;
        let burst: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let pscan = Pscan::new(PscanConfig { nodes, ..Default::default() });

        // Scatter by the map, then gather by the same map: identity.
        let sspec = ScatterSpec { slot_dest: map.clone() };
        let delivered = pscan.scatter(&sspec, &burst).unwrap().delivered;
        let gspec = GatherSpec { slot_source: map };
        let out = pscan.gather(&gspec, &delivered).unwrap();
        let back: Vec<u64> = out.received.iter().map(|w| w.unwrap()).collect();
        prop_assert_eq!(back, burst);
    }

    #[test]
    fn fft_matches_dft_on_random_signals(
        res in prop::collection::vec(-100.0f64..100.0, 64),
        ims in prop::collection::vec(-100.0f64..100.0, 64),
    ) {
        let x: Vec<Complex64> = res
            .iter()
            .zip(&ims)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();
        let mut y = x.clone();
        fft_in_place(&mut y);
        let r = dft_reference(&x);
        prop_assert!(max_error(&y, &r) < 1e-6);
    }

    #[test]
    fn cp_encoding_roundtrips(map in slot_map(5, 80)) {
        let cps = CpCompiler.compile_gather(&GatherSpec { slot_source: map }, 5);
        for cp in cps {
            let decoded = CommProgram::decode_words(&cp.encode_words()).unwrap();
            prop_assert_eq!(cp, decoded);
        }
    }

    #[test]
    fn blocked_fft_equals_monolithic_on_random_input(
        res in prop::collection::vec(-10.0f64..10.0, 256),
        k_pow in 0u32..=8,
    ) {
        let x: Vec<Complex64> = res.iter().map(|&r| Complex64::new(r, -r * 0.5)).collect();
        let k = 1usize << k_pow;
        let blocked = fft::BlockedFft::new(256, k).run(&x);
        let mut mono = x.clone();
        fft_in_place(&mut mono);
        prop_assert!(max_error(&blocked, &mono) < 1e-7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mesh_delivers_random_traffic_exactly_once(
        seeds in prop::collection::vec(0u8..16, 10),
    ) {
        use emesh::flit::Packet;
        use emesh::mesh::{Mesh, MeshConfig, RoutingPolicy};
        use emesh::topology::{MemifPlacement, Topology};

        let cfg = MeshConfig {
            topology: Topology::square(16, MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::MinimalAdaptive,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 22,
        };
        let mut mesh = Mesh::new(cfg);
        mesh.collect_sink_words(true);
        let mut expected = [0u64; 16];
        for (i, &s) in seeds.iter().enumerate() {
            let src = (s as u32 + 1) % 16;
            let dst = (s as u32 * 7 + i as u32) % 16;
            if src == dst || dst == 0 || src == 0 {
                continue;
            }
            mesh.inject_packet(src, &Packet::with_header(dst, i as u64, vec![i as u64; 3]));
            expected[dst as usize] += 3;
        }
        let res = mesh.run().unwrap();
        #[allow(clippy::needless_range_loop)] // n is the node id under test
        for n in 0..16 {
            prop_assert_eq!(res.sink_delivered[n], expected[n], "node {}", n);
        }
    }
}
