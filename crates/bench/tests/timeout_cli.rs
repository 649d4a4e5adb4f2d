//! Subprocess tests for the shared `--timeout-s` flag: strict parsing on
//! every harness bin, and end-to-end deadline cancellation surfacing as a
//! structured nonzero exit.

use std::path::PathBuf;
use std::process::Command;

/// A results directory that is removed when the guard drops, so no run
/// leaves files behind in the temp dir.
struct ResultsDir(PathBuf);

impl Drop for ResultsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn(bin_exe: &str, args: &[&str], tag: &str) -> (i32, String) {
    let dir = ResultsDir(
        std::env::temp_dir().join(format!("bench_timeout_{tag}_{}", std::process::id())),
    );
    let out = Command::new(bin_exe)
        .args(args)
        .env("PSYNC_RESULTS_DIR", &dir.0)
        .output()
        .expect("harness binary spawns");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn non_numeric_timeout_exits_2_with_usage() {
    let (code, err) = spawn(
        env!("CARGO_BIN_EXE_table1"),
        &["--timeout-s", "soon"],
        "nan",
    );
    assert_eq!(code, 2, "bad --timeout-s must exit 2: {err}");
    assert!(err.contains("--timeout-s"), "names the flag: {err}");
    assert!(err.contains("usage:"), "prints usage: {err}");
}

#[test]
fn negative_timeout_exits_2() {
    let (code, err) = spawn(env!("CARGO_BIN_EXE_table1"), &["--timeout-s", "-1"], "neg");
    assert_eq!(code, 2, "negative --timeout-s must exit 2: {err}");
}

#[test]
fn infinite_timeout_exits_2() {
    let (code, err) = spawn(env!("CARGO_BIN_EXE_table1"), &["--timeout-s", "inf"], "inf");
    assert_eq!(code, 2, "non-finite --timeout-s must exit 2: {err}");
}

#[test]
fn dangling_timeout_exits_2() {
    let (code, err) = spawn(env!("CARGO_BIN_EXE_table1"), &["--timeout-s"], "dangling");
    assert_eq!(code, 2, "dangling --timeout-s must exit 2: {err}");
    assert!(err.contains("needs a value"), "explains: {err}");
}

/// A generous deadline on a bin that never polls long enough to hit it is
/// a no-op: the run completes normally.
#[test]
fn generous_timeout_is_a_no_op() {
    let (code, err) = spawn(
        env!("CARGO_BIN_EXE_table1"),
        &["--quick", "--timeout-s", "3600"],
        "noop",
    );
    assert_eq!(code, 0, "generous timeout must not perturb the run: {err}");
}

/// An already-expired deadline cancels a simulating bin at its first
/// interrupt poll: nonzero exit, and the structured `Cancelled` error —
/// with the deadline cause — lands on stderr.
#[test]
fn zero_timeout_cancels_with_a_structured_error() {
    let (code, err) = spawn(
        env!("CARGO_BIN_EXE_table3_transpose"),
        &["--quick", "--timeout-s", "0"],
        "zero",
    );
    assert_eq!(code, 1, "cancellation is a run failure, exit 1: {err}");
    assert!(err.contains("Cancelled"), "structured cancel error: {err}");
    assert!(
        err.contains("Deadline"),
        "carries the deadline cause: {err}"
    );
}
