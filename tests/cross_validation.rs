//! Cross-validation: the closed-form §V models against the cycle/event
//! simulators — each side checks the other.

use analytic::model::FftParams;
use analytic::table3::Table3Params;
use emesh::mesh::{MeshConfig, RoutingPolicy};
use emesh::topology::{MemifPlacement, Topology};
use emesh::workloads::{
    eq21_delivery_cycles, eq21_delivery_cycles_dims, load_scatter, load_transpose,
};
use pscan::compiler::GatherSpec;
use pscan::network::{Pscan, PscanConfig};

#[test]
fn mesh_scatter_sim_tracks_eq21() {
    // Eq. (21): delivery = P·F + P·√P·t_r. Simulate a blocked scatter on a
    // 64-node mesh across block sizes and require agreement within 35 %
    // (the closed form ignores pipelining overlap and wormhole stalls).
    for block in [16usize, 64, 128] {
        let cfg = MeshConfig {
            topology: Topology::square(64, MemifPlacement::SingleCorner),
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 30,
        };
        let mut mesh = load_scatter(cfg, block, 1);
        let res = mesh.run().unwrap();
        let predicted = eq21_delivery_cycles(63, block as u64 + 1, 1);
        let err = (res.cycles as f64 - predicted as f64).abs() / predicted as f64;
        assert!(
            err < 0.35,
            "block {block}: sim {} vs Eq.21 {predicted} ({:.0}% off)",
            res.cycles,
            err * 100.0
        );
    }
}

#[test]
fn eq21_forms_agree_across_crates_and_geometries() {
    // The emesh closed form and the analytic surrogate must be the same
    // integer arithmetic — square, rectangular, and torus alike.
    assert_eq!(
        eq21_delivery_cycles(63, 17, 1),
        analytic::surrogate::mesh_scatter_cycles(64, 16, 1)
    );
    for (w, h, block, t_r, torus) in [
        (8u64, 8u64, 16u64, 1u64, false),
        (8, 4, 64, 1, false),
        (16, 4, 16, 4, false),
        (8, 8, 16, 1, true),
        (6, 4, 32, 2, true),
    ] {
        assert_eq!(
            eq21_delivery_cycles_dims(w, h, block + 1, t_r, torus),
            analytic::surrogate::mesh_scatter_cycles_dims(w, h, block, t_r, torus),
            "{w}x{h} torus={torus}"
        );
    }
}

#[test]
fn mesh_scatter_sim_tracks_eq21_dims_on_rect_and_torus() {
    // The generalized closed form must track the simulator on the
    // geometries the truncated-√P form got wrong.
    for (w, h, torus) in [(8usize, 4usize, false), (8, 8, true)] {
        let cfg = MeshConfig {
            topology: Topology::rect(w, h, MemifPlacement::SingleCorner).with_torus(torus),
            t_r: 1,
            policy: RoutingPolicy::Xy,
            memif: Default::default(),
            buffer_depth: 2,
            max_cycles: 1 << 30,
        };
        let mut mesh = load_scatter(cfg, 64, 1);
        let res = mesh.run().unwrap();
        let predicted = eq21_delivery_cycles_dims(w as u64, h as u64, 65, 1, torus);
        let err = (res.cycles as f64 - predicted as f64).abs() / predicted as f64;
        assert!(
            err < 0.35,
            "{w}x{h} torus={torus}: sim {} vs Eq.21 {predicted} ({:.0}% off)",
            res.cycles,
            err * 100.0
        );
    }
}

#[test]
fn pscan_gather_sim_matches_closed_form_cycles() {
    // An SCA moving S samples at one 64-bit sample per slot must span
    // exactly S slots at the terminus; with DRAM-row headers added, the
    // total equals the Table III closed form.
    let procs = 32;
    let row_len = 32;
    let pscan = Pscan::new(PscanConfig {
        nodes: procs,
        ..Default::default()
    });
    let spec = GatherSpec {
        slot_source: (0..procs * row_len).map(|k| k % procs).collect(),
    };
    let data: Vec<Vec<u64>> = (0..procs).map(|p| vec![p as u64; row_len]).collect();
    let out = pscan.gather(&spec, &data).unwrap();
    assert_eq!(out.utilization, 1.0);
    let span_slots = out.last_arrival.since(out.first_arrival).as_ps() / pscan.slot().as_ps() + 1;
    assert_eq!(span_slots, (procs * row_len) as u64);

    let t3 = Table3Params {
        n: row_len as u64,
        p: procs as u64,
        ..Default::default()
    };
    let payload = (procs * row_len) as u64;
    let headers = payload.div_ceil(2048 / 64);
    assert_eq!(payload + headers, t3.pscan_cycles());
}

#[test]
fn mesh_transpose_multiplier_in_paper_band() {
    // Scaled-down Table III: the mesh-to-PSCAN multiplier should sit in the
    // paper's 3–7x band and grow with t_p.
    let procs = 64;
    let row_len = 64;
    let t3 = Table3Params {
        n: row_len as u64,
        p: procs as u64,
        ..Default::default()
    };
    let pscan = t3.pscan_cycles() as f64;

    let run = |t_p: u64| {
        let mut mesh = load_transpose(MeshConfig::table3(procs, t_p), procs, row_len);
        mesh.run().unwrap().cycles as f64
    };
    let m1 = run(1) / pscan;
    let m4 = run(4) / pscan;
    assert!(m1 > 1.5 && m1 < 5.5, "t_p=1 multiplier {m1}");
    assert!(m4 > m1, "multiplier must grow with t_p");
    assert!(m4 > 3.5 && m4 < 9.0, "t_p=4 multiplier {m4}");
}

#[test]
fn blocked_fft_ops_match_analytic_params() {
    let params = FftParams::default();
    for k in [1u64, 4, 16, 64] {
        let bf = fft::BlockedFft::new(1024, k as usize);
        assert_eq!(
            bf.multiplies_per_block() as f64 * params.mult_ns,
            params.t_ck_ns(k)
        );
        assert_eq!(
            bf.multiplies_final() as f64 * params.mult_ns,
            params.t_cf_ns(k)
        );
    }
}

#[test]
fn photonic_clock_skew_equals_flight_time_on_machine_layout() {
    // The pscan bus's per-tap clock skew must equal the photonics layer's
    // flight time for the same layout (no hidden fudge factors).
    let pscan = Pscan::new(PscanConfig {
        nodes: 16,
        ..Default::default()
    });
    let layout = pscan.bus().layout();
    for tap in [0usize, 7, 15] {
        assert_eq!(pscan.bus().clock().skew(tap), layout.flight_to_tap(tap));
    }
}
