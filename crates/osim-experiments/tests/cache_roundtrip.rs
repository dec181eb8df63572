//! End-to-end checks of the content-addressed run cache through the real
//! binary: a warm rerun must be byte-identical to the cold run (stdout
//! and `--json`), corrupted entries must be silently re-run rather than
//! fail anything, and `cache verify`/`cache clear` must see what the
//! sweeps left behind.

use std::path::PathBuf;
use std::process::Command;

use osim_report::json::{parse, Json};

/// A unique scratch path under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("osim-cachetest-{}-{tag}", std::process::id()))
}

/// Runs the experiments binary, returning (stdout bytes, `--json` bytes).
fn sweep(args: &[&str], cache: &str, json_tag: &str) -> (Vec<u8>, Vec<u8>) {
    let json_path = scratch(&format!("{json_tag}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_osim-experiments"))
        .args(args)
        .args(["--cache", cache, "--json"])
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

/// Runs a `cache <action>` maintenance command, returning (exit code,
/// stdout text).
fn cache_cmd(action: &str, dir: &std::path::Path, json: bool) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_osim-experiments"));
    cmd.arg("cache").arg(action).arg("--cache").arg(dir);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.output().expect("experiments binary runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// [`sweep`] with `--sweep-json`: also returns the document's
/// `cache_hits` and each job row's `cache_hit` flag (after checking
/// `job_count` against the rows).
fn sweep_with_hits(args: &[&str], cache: &str, tag: &str) -> (Vec<u8>, Vec<u8>, u64, Vec<bool>) {
    let path = scratch(&format!("{tag}-sweep.json"));
    let mut args = args.to_vec();
    args.extend(["--sweep-json", path.to_str().expect("utf-8 temp path")]);
    let (out, json) = sweep(&args, cache, tag);
    let text = std::fs::read_to_string(&path).expect("--sweep-json file written");
    let _ = std::fs::remove_file(&path);
    let doc = parse(&text).expect("valid JSON");
    let hits = doc
        .get("cache_hits")
        .and_then(Json::as_u64)
        .expect("cache_hits");
    let jobs: Vec<bool> = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array")
        .iter()
        .map(|j| {
            j.get("cache_hit")
                .and_then(Json::as_bool)
                .expect("cache_hit")
        })
        .collect();
    assert_eq!(
        doc.get("job_count").and_then(Json::as_u64),
        Some(jobs.len() as u64),
        "job_count disagrees with the job rows"
    );
    (out, json, hits, jobs)
}

fn entry_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    v.sort();
    v
}

#[test]
fn warm_rerun_is_byte_identical_and_entries_verify() {
    let dir = scratch("warm");
    let _ = std::fs::remove_dir_all(&dir);
    let dirs = dir.to_str().expect("utf-8 temp path");

    let (cold_out, cold_json, cold_hits, cold_jobs) =
        sweep_with_hits(&["gc", "--tiny"], dirs, "cold");
    let entries = entry_files(&dir);
    assert!(!entries.is_empty(), "cold run populated the cache");
    assert_eq!(cold_hits, 0, "an empty cache cannot hit");
    assert!(cold_jobs.iter().all(|&hit| !hit), "a cold job hit");

    // Warm rerun: same bytes, no new entries, and every job a hit (byte
    // identity alone would also pass if the cache never hit). A different
    // --jobs count is used on purpose: host-only knobs must not miss the
    // cache.
    let (warm_out, warm_json, warm_hits, warm_jobs) =
        sweep_with_hits(&["gc", "--tiny", "--jobs", "3"], dirs, "warm");
    assert!(!warm_jobs.is_empty(), "the warm sweep ran no jobs");
    assert_eq!(warm_hits, warm_jobs.len() as u64, "warm sweep missed");
    assert!(warm_jobs.iter().all(|&hit| hit), "a warm job missed");
    assert_eq!(cold_out, warm_out, "stdout diverged between cold and warm");
    assert_eq!(
        cold_json, warm_json,
        "--json diverged between cold and warm"
    );
    assert_eq!(entry_files(&dir), entries, "warm run changed the cache");

    // Cache off: still the same bytes.
    let (off_out, off_json) = sweep(&["gc", "--tiny"], "off", "off");
    assert_eq!(cold_out, off_out, "stdout diverged between cached and off");
    assert_eq!(
        cold_json, off_json,
        "--json diverged between cached and off"
    );

    // Every entry decodes and validates.
    let (code, text) = cache_cmd("verify", &dir, false);
    assert_eq!(code, 0, "cache verify failed:\n{text}");

    // `cache clear` empties it (and only it).
    let foreign = dir.join("README");
    std::fs::write(&foreign, "not an entry").expect("write foreign file");
    let (code, _) = cache_cmd("clear", &dir, true);
    assert_eq!(code, 0);
    assert!(entry_files(&dir).is_empty(), "clear left entries behind");
    assert!(foreign.exists(), "clear removed a foreign file");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_are_rerun_not_fatal() {
    let dir = scratch("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let dirs = dir.to_str().expect("utf-8 temp path");

    let (cold_out, cold_json) = sweep(&["gc", "--tiny"], dirs, "c-cold");
    let entries = entry_files(&dir);
    assert!(entries.len() >= 2, "want at least two entries to corrupt");

    // Corrupt one entry by truncation, another by flipping a byte inside
    // the report body (which must trip either the parser or the report
    // invariants).
    let text = std::fs::read_to_string(&entries[0]).expect("read entry");
    std::fs::write(&entries[0], &text[..text.len() / 2]).expect("truncate entry");
    let text = std::fs::read_to_string(&entries[1]).expect("read entry");
    let pos = text.find("\"cycles\":").expect("report body present") + "\"cycles\":".len() + 1;
    let mut bytes = text.into_bytes();
    bytes[pos] = if bytes[pos] == b'9' { b'8' } else { b'9' };
    std::fs::write(&entries[1], &bytes).expect("flip entry byte");

    // `cache verify` blames exactly the two tampered files.
    let (code, report) = cache_cmd("verify", &dir, false);
    assert_eq!(code, 1, "verify must fail on corrupted entries:\n{report}");
    assert_eq!(report.matches("BAD").count(), 1 + 2, "two blamed entries");

    // The sweep recovers: bad entries re-run, output unchanged, cache
    // healed.
    let (warm_out, warm_json) = sweep(&["gc", "--tiny"], dirs, "c-warm");
    assert_eq!(cold_out, warm_out, "stdout changed after corruption");
    assert_eq!(cold_json, warm_json, "--json changed after corruption");
    let (code, report) = cache_cmd("verify", &dir, false);
    assert_eq!(code, 0, "cache did not heal:\n{report}");

    let _ = std::fs::remove_dir_all(&dir);
}
