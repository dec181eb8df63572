//! End-to-end check that `--scheduler <kind>` is invisible in the binary's
//! output: the calendar queue and the reference binary heap must produce
//! byte-identical stdout tables and `--json` report documents.
//!
//! The in-process property (`osim-engine/tests/scheduler_equivalence.rs`)
//! proves identical dispatch order; this closes the remaining gap — the
//! full machine, every workload's gate traffic, report serialization —
//! by running the real binary once per scheduler and comparing raw bytes
//! (mirrors `jobs_byte_identical.rs`).

use std::path::PathBuf;
use std::process::Command;

/// Runs the experiments binary, returning (stdout bytes, `--json` bytes).
fn sweep(args: &[&str], scheduler: &str) -> (Vec<u8>, Vec<u8>) {
    // The tests of this file run in parallel in one process: the path
    // names the arguments as well as the scheduler.
    let json_path: PathBuf = std::env::temp_dir().join(format!(
        "osim-sched-eq-{}-{}-{scheduler}.json",
        std::process::id(),
        args.join("_")
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
        .args(args)
        .args(["--jobs", "1", "--scheduler", scheduler, "--json"])
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

fn assert_scheduler_invisible(args: &[&str]) {
    let (stdout_cal, json_cal) = sweep(args, "calendar");
    let (stdout_heap, json_heap) = sweep(args, "heap");
    assert_eq!(
        stdout_cal, stdout_heap,
        "stdout diverged between schedulers for {args:?}"
    );
    assert_eq!(
        json_cal, json_heap,
        "--json diverged between schedulers for {args:?}"
    );
    assert!(!json_cal.is_empty(), "--json produced no reports");
}

#[test]
fn fig8_tiny_output_is_byte_identical_across_schedulers() {
    assert_scheduler_invisible(&["fig8", "--tiny"]);
}

#[test]
fn gc_tiny_output_is_byte_identical_across_schedulers() {
    assert_scheduler_invisible(&["gc", "--tiny"]);
}

#[test]
fn fig6_tiny_with_stats_and_faults_is_byte_identical_across_schedulers() {
    assert_scheduler_invisible(&["fig6", "--tiny", "--stats", "--inject", "chaos"]);
}
