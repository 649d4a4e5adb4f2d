//! Subprocess tests for the `run_batch` supervised batch driver: the four
//! structured outcomes, the cache's shared fingerprint, byte-identity with
//! the direct `table3_transpose` bin, and the SIGINT drain.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::Value;

/// A results directory that is removed when the guard drops — also when an
/// assertion fails — so no run leaves files behind in the temp dir.
struct ResultsDir(PathBuf);

impl Drop for ResultsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir(tag: &str) -> ResultsDir {
    ResultsDir(std::env::temp_dir().join(format!("bench_run_batch_{tag}_{}", std::process::id())))
}

/// Run `bin --quick` with its results under `dir`; panics on a nonzero exit.
fn run_quick(bin: &str, dir: &Path) {
    let out = Command::new(bin)
        .arg("--quick")
        .env("PSYNC_RESULTS_DIR", dir)
        .output()
        .expect("harness binary spawns");
    assert!(
        out.status.success(),
        "{bin} --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The `run_batch.json` rows as (job, outcome, fingerprint) triples.
fn batch_rows(dir: &Path) -> Vec<(String, String, Option<String>)> {
    let text = std::fs::read_to_string(dir.join("run_batch.json")).expect("batch summary");
    let json = serde_json::from_str(&text).expect("valid JSON");
    let field = |row: &Value, key: &str| row.get(key).and_then(Value::as_str).map(str::to_string);
    json.as_array()
        .expect("summary is an array of rows")
        .iter()
        .map(|row| {
            (
                field(row, "job").expect("job"),
                field(row, "outcome").expect("outcome"),
                field(row, "fingerprint"),
            )
        })
        .collect()
}

#[test]
fn quick_batch_reports_four_outcomes_and_matches_the_direct_bin() {
    let batch = out_dir("quick");
    let direct = out_dir("direct");
    run_quick(env!("CARGO_BIN_EXE_run_batch"), &batch.0);
    run_quick(env!("CARGO_BIN_EXE_table3_transpose"), &direct.0);

    let rows = batch_rows(&batch.0);
    let outcomes: Vec<(&str, &str)> = rows
        .iter()
        .map(|(job, outcome, _)| (job.as_str(), outcome.as_str()))
        .collect();
    assert_eq!(
        outcomes,
        [
            ("table3", "pass"),
            ("table3-cached", "cached"),
            ("table3-deadline", "deadline"),
            ("table3-panic", "panicked"),
        ]
    );
    let fingerprints: Vec<&str> = rows.iter().filter_map(|r| r.2.as_deref()).collect();
    assert_eq!(fingerprints.len(), 2, "pass and cached carry fingerprints");
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "pass and cached must share one fingerprint"
    );

    let supervised = std::fs::read(batch.0.join("batch/table3.json")).expect("batch result");
    let direct_bytes = std::fs::read(direct.0.join("table3.json")).expect("direct result");
    assert!(
        supervised == direct_bytes,
        "supervised result differs from the direct bin's table3.json"
    );
}

/// Full scale (paper-size Table III), so the interrupt lands
/// mid-simulation: the driver must cancel the in-flight job, drain the
/// queue, flush the partial report, and exit 130.
#[test]
fn sigint_mid_simulation_drains_to_exit_130() {
    let dir = out_dir("sigint");
    let mut child = Command::new(env!("CARGO_BIN_EXE_run_batch"))
        .env("PSYNC_RESULTS_DIR", &dir.0)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run_batch spawns");

    // Relay stderr lines; keep draining after the signal so the child never
    // blocks on a full pipe.
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, lines) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    // The SIGINT handler is installed before the first job starts, so once
    // the mesh announces itself the signal is routed to the drain.
    let started = Instant::now();
    let announced = loop {
        match lines.recv_timeout(Duration::from_secs(120)) {
            Ok(line) if line.contains("simulating mesh transpose") => break true,
            Ok(_) => {}
            Err(_) => break false,
        }
    };
    if !announced {
        let _ = child.kill();
        panic!("run_batch never started simulating");
    }
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill spawns");
    assert!(status.success(), "SIGINT delivered");

    let code = loop {
        if let Some(status) = child.try_wait().expect("wait on run_batch") {
            break status.code();
        }
        if started.elapsed() > Duration::from_secs(300) {
            let _ = child.kill();
            panic!("run_batch did not drain after SIGINT");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    reader.join().expect("stderr reader");
    assert_eq!(code, Some(130), "SIGINT drain exits 130");

    let rows = batch_rows(&dir.0);
    assert_eq!(rows.len(), 4, "{rows:?}");
    for (job, outcome, _) in &rows {
        assert!(
            outcome == "cancelled" || outcome == "deadline",
            "{job} not drained as cancelled: {outcome}"
        );
    }
}
