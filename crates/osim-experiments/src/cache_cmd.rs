//! `cache` subcommand: inspect and maintain the on-disk run cache.
//!
//! * `cache stats`  — entry count, total bytes, labels by figure, and the
//!   engine-semantics version entries must match to be usable;
//! * `cache verify` — decode every entry through the same hardened codec
//!   lookups use (schema/semantics checks, `SimReport::validate`
//!   invariants, key-vs-filename match) and print per-entry blame;
//! * `cache clear`  — remove every entry file, leaving foreign files in
//!   the directory untouched.
//!
//! All three take `--json`; `verify` exits 1 when any entry is bad (the
//! bad entries would also just be re-run as misses — `verify` exists so
//! bit rot is *visible*, not because it is dangerous).

use std::collections::BTreeMap;
use std::path::Path;

use osim_jobq::{CacheKey, TextStore};
use osim_report::json::{obj, Json};

use crate::runcache::{decode_entry, ENGINE_SEMANTICS_VERSION};

/// One bad entry: which file, and why the codec rejected it.
struct Blame {
    path: String,
    reason: String,
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| p.display().to_string())
}

/// Walks every entry under `dir`, decoding each one. Returns
/// (good entry labels, total bytes, blames).
fn scan(store: &TextStore) -> (Vec<String>, u64, Vec<Blame>) {
    let mut labels = Vec::new();
    let mut bytes = 0u64;
    let mut blames = Vec::new();
    for path in store.disk_entries() {
        let name = file_name(&path);
        // Entries whose stem parses as a key are read through the store
        // itself — the same timed path lookups use — so `stats` can report
        // real read-latency quantiles from the store's histogram. The raw
        // filesystem read stays as the fallback (and as the blame source:
        // `get` collapses every failure to a miss).
        let stem = name.strip_suffix(".json").unwrap_or(&name);
        let via_store = CacheKey::from_hex(stem).and_then(|k| store.get(&k));
        let text = match via_store {
            Some(t) => t.to_string(),
            None => match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    blames.push(Blame {
                        path: name,
                        reason: format!("unreadable: {e}"),
                    });
                    continue;
                }
            },
        };
        bytes += text.len() as u64;
        match decode_entry(&text) {
            Ok(entry) => {
                let stem = name.strip_suffix(".json").unwrap_or(&name);
                if entry.key_hex != stem {
                    blames.push(Blame {
                        path: name,
                        reason: format!("embedded key {} does not match file name", entry.key_hex),
                    });
                } else {
                    labels.push(entry.label);
                }
            }
            Err(reason) => blames.push(Blame { path: name, reason }),
        }
    }
    (labels, bytes, blames)
}

/// Label counts grouped by figure (the `fig/` prefix of each label).
fn by_figure(labels: &[String]) -> BTreeMap<String, u64> {
    let mut m = BTreeMap::new();
    for l in labels {
        let fig = l.split('/').next().unwrap_or("?").to_string();
        *m.entry(fig).or_insert(0u64) += 1;
    }
    m
}

pub fn stats(dir: &Path, json: bool) -> i32 {
    let store = TextStore::at_dir(dir);
    let (labels, bytes, blames) = scan(&store);
    let figs = by_figure(&labels);
    if json {
        // Entry reads above went through the store's timed path; surface
        // their latency quantiles.
        let h = store.read_hist();
        let doc = obj(vec![
            ("schema", Json::Str("osim-cache-stats-v1".to_string())),
            ("dir", Json::Str(dir.display().to_string())),
            ("semantics", Json::from_u64(ENGINE_SEMANTICS_VERSION)),
            ("entries", Json::from_u64(labels.len() as u64)),
            ("bad_entries", Json::from_u64(blames.len() as u64)),
            ("bytes", Json::from_u64(bytes)),
            (
                "by_figure",
                Json::Obj(
                    figs.iter()
                        .map(|(k, &v)| (k.clone(), Json::from_u64(v)))
                        .collect(),
                ),
            ),
            (
                "read_ns",
                obj(vec![
                    ("count", Json::from_u64(h.count())),
                    ("p50", Json::from_u64(h.quantile(0.50))),
                    ("p90", Json::from_u64(h.quantile(0.90))),
                    ("p99", Json::from_u64(h.quantile(0.99))),
                ]),
            ),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "cache {}: {} entries, {} bytes",
            dir.display(),
            labels.len(),
            bytes
        );
        println!("engine semantics version: {ENGINE_SEMANTICS_VERSION}");
        for (fig, n) in &figs {
            println!("  {fig:<8} {n} entries");
        }
        if !blames.is_empty() {
            println!(
                "  {} bad entries (run `cache verify` for blame)",
                blames.len()
            );
        }
    }
    0
}

pub fn verify(dir: &Path, json: bool) -> i32 {
    let store = TextStore::at_dir(dir);
    let (labels, _, blames) = scan(&store);
    if json {
        let doc = obj(vec![
            ("schema", Json::Str("osim-cache-verify-v1".to_string())),
            ("dir", Json::Str(dir.display().to_string())),
            ("good", Json::from_u64(labels.len() as u64)),
            ("bad", Json::from_u64(blames.len() as u64)),
            (
                "blames",
                Json::Arr(
                    blames
                        .iter()
                        .map(|b| {
                            obj(vec![
                                ("path", Json::Str(b.path.clone())),
                                ("reason", Json::Str(b.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.to_pretty());
    } else if blames.is_empty() {
        println!(
            "cache {}: all {} entries decode and validate",
            dir.display(),
            labels.len()
        );
    } else {
        println!(
            "cache {}: {} good, {} BAD",
            dir.display(),
            labels.len(),
            blames.len()
        );
        for b in &blames {
            println!("  BAD {}: {}", b.path, b.reason);
        }
    }
    i32::from(!blames.is_empty())
}

pub fn clear(dir: &Path, json: bool) -> i32 {
    let store = TextStore::at_dir(dir);
    let removed = store.clear();
    if json {
        let doc = obj(vec![
            ("schema", Json::Str("osim-cache-clear-v1".to_string())),
            ("dir", Json::Str(dir.display().to_string())),
            ("removed", Json::from_u64(removed as u64)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!("cache {}: removed {removed} entries", dir.display());
    }
    0
}
