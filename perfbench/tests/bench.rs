//! The benchmark's own checks, on small instances of every workload.

use psync_perfbench::collectives::CollectivesMixed;
use psync_perfbench::fft2d::PsyncFft2d;
use psync_perfbench::metrics;
use psync_perfbench::table3::Table3Mesh;
use psync_perfbench::trace::{Region, Tracer};
use psync_perfbench::Workload;
use serde::Value;

fn small(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "table3_mesh" => Box::new(Table3Mesh {
            procs: 64,
            row_len: 64,
            expected_cycles: None,
        }),
        "psync_fft2d" => Box::new(PsyncFft2d::new(64, vec![4, 16, 64], seed)),
        "collectives_mixed" => Box::new(CollectivesMixed {
            geometries: vec![(4, 4), (8, 4)],
            mesh_words: 4,
            sca_words: 4,
        }),
        _ => unreachable!("unknown workload {name}"),
    }
}

const WORKLOADS: [&str; 3] = ["table3_mesh", "psync_fft2d", "collectives_mixed"];

#[test]
fn two_runs_print_identical_witnesses() {
    for name in WORKLOADS {
        let a = small(name, 7).rep(None);
        let b = small(name, 7).rep(None);
        assert!(a.failures.is_empty(), "{name}: {:?}", a.failures);
        assert!(a.attempted > 0 && !a.witnesses.is_empty(), "{name}");
        assert_eq!(a.witness_json(), b.witness_json(), "{name}");
    }
}

#[test]
fn the_seed_draws_the_fft_input() {
    let a = small("psync_fft2d", 1).rep(None);
    let b = small("psync_fft2d", 2).rep(None);
    assert_ne!(a.witness_json(), b.witness_json());
}

#[test]
fn layer_self_times_account_for_traced_run_s() {
    for name in WORKLOADS {
        let mut w = small(name, 3);
        let plain = w.rep(None);
        let tr = Tracer::new();
        let traced = w.rep(Some(&tr));
        assert!(traced.failures.is_empty(), "{name}: {:?}", traced.failures);
        let self_sum: f64 = tr.layer_self_seconds(Region::Run).values().sum();
        let gap = (traced.run_s - self_sum).abs();
        assert!(
            gap <= 0.02 * traced.run_s + 1e-3,
            "{name}: layer self times {self_sum} s vs run_s {} s",
            traced.run_s
        );
        let layer = metrics::per_layer(&tr, &plain, &traced, 1.0);
        let get = |k: &str| layer.iter().find(|m| m.0 == k).expect(k).1;
        match name {
            "table3_mesh" => assert!(get("emesh.flit_moves") > 0.0 && get("emesh.run_s") > 0.0),
            "psync_fft2d" => {
                assert_eq!(get("pscan.utilization"), 1.0);
                assert!(get("pscan.gather_s") > 0.0 && get("fft.butterflies") > 0.0);
                assert!(get("psync.self_s") < get("psync.machine_s"));
            }
            _ => {
                assert_eq!(get("emesh.deadlock_splits"), 0.0);
                assert!(get("emesh.rounds") > 0.0 && get("psync.machine_s") > 0.0);
            }
        }
        let trace = tr.chrome_trace_json();
        assert!(trace.contains("\"traceEvents\"") && trace.contains("\"host\""));
    }
}

#[test]
fn benchmark_json_lists_every_metric_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = serde_json::from_str(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let names = |ms: Vec<metrics::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let rep = psync_perfbench::Rep::default();
    assert_eq!(
        listed("end_to_end"),
        names(metrics::end_to_end(&[1.0], &[vec![1.0]], &[1.0], 1.0))
    );
    assert_eq!(
        listed("per_layer"),
        names(metrics::per_layer(&Tracer::new(), &rep, &rep, 1.0))
    );
}
