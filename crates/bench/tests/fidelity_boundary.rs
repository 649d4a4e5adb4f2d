//! Fidelity-selection boundary behaviour and the auto-vs-simulation
//! differential: the guarantees DESIGN.md §15 makes about when the
//! analytic fast path may answer and how far it may stray when it does.

use bench::fidelity::{decide, FidelityPolicy, PointConfig, ValidationRegistry};
use bench::jobs::{matrix_points, run_full_matrix, FullMatrixSpec};

fn point(family: &str, p: u64, n: u64, fault_rate: f64, policy: &str) -> PointConfig {
    PointConfig {
        family: family.to_string(),
        p,
        n,
        fault_rate,
        policy: policy.to_string(),
    }
}

#[test]
fn at_edge_points_are_inside_the_validated_region() {
    let reg = ValidationRegistry::builtin();
    let auto = FidelityPolicy::auto();
    // Region bounds are inclusive: the validated corners themselves answer
    // analytically.
    for pc in [
        point("model2_eq11", 4, 16, 0.0, "sca"),    // both minima
        point("model2_eq11", 16, 1024, 0.0, "sca"), // both maxima
        point("mesh_eq21", 64, 256, 0.0, "Xy"),     // fixed-P family at n max
        point("table3_pscan", 1024, 1024, 0.0, "sca"),
    ] {
        let d = decide(auto, &pc, &reg);
        assert!(d.is_analytic(), "{pc:?}: {}", d.reason);
        assert!(d.envelope_rel_err.is_some());
    }
}

#[test]
fn one_step_beyond_the_edge_falls_back_to_simulation() {
    let reg = ValidationRegistry::builtin();
    let auto = FidelityPolicy::auto();
    for pc in [
        point("model2_eq11", 32, 1024, 0.0, "sca"), // P past the max
        point("model2_eq11", 2, 64, 0.0, "sca"),    // P below the min
        point("model2_eq11", 16, 2048, 0.0, "sca"), // N past the max
        point("model2_eq11", 16, 8, 0.0, "sca"),    // N below the min
        point("mesh_eq21", 16, 64, 0.0, "Xy"),      // unvalidated geometry
        point("mesh_eq21", 64, 64, 0.0, "MinimalAdaptive"), // unvalidated policy
    ] {
        let d = decide(auto, &pc, &reg);
        assert_eq!(d.chosen, "cycle_accurate", "{pc:?}: {}", d.reason);
        assert!(d.envelope_rel_err.is_none());
        assert!(
            d.reason.contains("outside validation"),
            "{pc:?}: {}",
            d.reason
        );
    }
}

#[test]
fn nonzero_fault_rate_forces_simulation_even_when_analytic_is_requested() {
    let reg = ValidationRegistry::builtin();
    // No closed form models the fault/retransmit machinery, so even a
    // forced-analytic run must simulate a faulted point.
    let pc = point("mesh_eq21", 64, 64, 1e-2, "Xy");
    let d = decide(FidelityPolicy::Analytic, &pc, &reg);
    assert_eq!(d.chosen, "cycle_accurate");
    assert!(d.reason.contains("fault"), "{}", d.reason);
}

#[test]
fn auto_ceiling_rejects_envelopes_looser_than_requested() {
    let reg = ValidationRegistry::builtin();
    // mesh_eq21's envelope is 0.35 — fine for the default auto ceiling,
    // too loose for a 10% one. The tighter model2 envelope still passes.
    let mesh = point("mesh_eq21", 64, 64, 0.0, "Xy");
    let model2 = point("model2_eq11", 8, 64, 0.0, "sca");
    let strict = FidelityPolicy::parse("auto:0.1").unwrap();
    let d = decide(strict, &mesh, &reg);
    assert_eq!(d.chosen, "cycle_accurate");
    assert!(d.reason.contains("looser"), "{}", d.reason);
    assert!(decide(strict, &model2, &reg).is_analytic());
    // The explicit policies are not ceiling-gated: forced analytic takes
    // the loose envelope, forced simulation ignores the registry entirely.
    assert!(decide(FidelityPolicy::Analytic, &mesh, &reg).is_analytic());
    assert_eq!(
        decide(FidelityPolicy::CycleAccurate, &model2, &reg).chosen,
        "cycle_accurate"
    );
}

#[test]
fn every_matrix_point_decision_is_scale_invariant() {
    // The quick and paper matrices must make identical fidelity choices
    // row-for-row, or a green quick CI run would not vouch for the paper
    // configuration.
    let reg = ValidationRegistry::builtin();
    let auto = FidelityPolicy::auto();
    let quick = matrix_points(true);
    let paper = matrix_points(false);
    for (q, p) in quick.iter().zip(&paper) {
        assert_eq!(q.family, p.family);
        assert_eq!(
            decide(auto, &q.point_config(), &reg).chosen,
            decide(auto, &p.point_config(), &reg).chosen,
            "row {} decides differently across scales",
            q.id
        );
    }
}

#[test]
fn auto_matrix_agrees_with_full_simulation_within_envelopes() {
    // The differential: run the quick matrix twice — once under `auto`,
    // once all-simulated — and hold every analytic answer inside its
    // validated envelope against the measured value.
    let auto = run_full_matrix(
        &FullMatrixSpec {
            quick: true,
            fidelity: FidelityPolicy::auto(),
            reference: false,
        },
        None,
        None,
    )
    .expect("auto matrix runs");
    let sim = run_full_matrix(
        &FullMatrixSpec {
            quick: true,
            fidelity: FidelityPolicy::CycleAccurate,
            reference: false,
        },
        None,
        None,
    )
    .expect("all-simulated matrix runs");
    let (auto, sim) = (auto.0, sim.0);
    assert_eq!(sim.analytic_rows, 0, "cycle_accurate simulates everything");
    assert!(
        auto.analytic_rows > 0,
        "auto answers something analytically"
    );
    for (a, s) in auto.rows.iter().zip(&sim.rows) {
        assert_eq!(a.id, s.id);
        if a.fidelity == "cycle_accurate" {
            // Same fabric, same seed, same answer.
            assert_eq!(a.value, s.value, "row {} simulation drifted", a.id);
            continue;
        }
        let envelope = a.envelope_rel_err.expect("analytic rows carry envelopes");
        let rel = (a.value - s.value).abs() / s.value.abs();
        assert!(
            rel <= envelope + 1e-12,
            "row {} ({} [{}]): analytic {} vs simulated {} — rel err {rel:.3e} \
             breaks envelope {envelope:.0e}",
            a.id,
            a.family,
            a.point,
            a.value,
            s.value,
        );
    }
}
