//! End-to-end check that `--jobs <n>` is invisible in the binary's output.
//!
//! The in-process properties (`src/equivalence_tests.rs`) already prove the
//! pool returns identical results for any worker count; this test closes
//! the remaining gap — argument parsing, rendering and `--json` serialization
//! — by running the real binary twice and comparing raw bytes.

use std::path::PathBuf;
use std::process::Command;

/// Runs the experiments binary, returning (stdout bytes, `--json` bytes).
fn sweep(args: &[&str], jobs: &str, json_name: &str) -> (Vec<u8>, Vec<u8>) {
    // The tests of this file run in parallel in one process: the path
    // names the arguments as well as the run.
    let json_path: PathBuf = std::env::temp_dir().join(format!(
        "osim-jobs-eq-{}-{}-{json_name}.json",
        std::process::id(),
        args.join("_")
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
        .args(args)
        .args(["--jobs", jobs, "--json"])
        .arg(&json_path)
        .output()
        .expect("experiments binary runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read(&json_path).expect("--json file written");
    let _ = std::fs::remove_file(&json_path);
    (out.stdout, json)
}

fn assert_jobs_invisible(args: &[&str]) {
    let (stdout_serial, json_serial) = sweep(args, "1", "serial");
    let (stdout_par, json_par) = sweep(args, "4", "par");
    assert_eq!(
        stdout_serial, stdout_par,
        "stdout diverged between --jobs 1 and --jobs 4 for {args:?}"
    );
    assert_eq!(
        json_serial, json_par,
        "--json diverged between --jobs 1 and --jobs 4 for {args:?}"
    );
    assert!(!json_serial.is_empty(), "--json produced no reports");
}

#[test]
fn fig8_tiny_output_is_byte_identical_across_jobs() {
    assert_jobs_invisible(&["fig8", "--tiny"]);
}

#[test]
fn gc_tiny_output_is_byte_identical_across_jobs() {
    assert_jobs_invisible(&["gc", "--tiny"]);
}

#[test]
fn fig6_tiny_with_stats_and_faults_is_byte_identical_across_jobs() {
    assert_jobs_invisible(&["fig6", "--tiny", "--stats", "--inject", "chaos"]);
}
