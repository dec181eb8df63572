//! `osbench` — the repository's benchmark: seeded workloads on the
//! O-structure simulator and the versioned store, driven through the
//! library crates' public functions, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path osbench/Cargo.toml -- \
//!     --workload <sim_versioned|sim_baseline|store_zipf_rw> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is a separate run on the same seed that records spans
//! around every call into a layer, reports the per-layer metrics and the
//! tracing overhead, and writes the spans as a Chrome trace to
//! `osbench/out/`. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the human-readable report. Any failed check exits 1.

mod sim;
mod stats;
mod store;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;

use osim_metrics::json::{obj, Json};

/// End-to-end metrics, reported by `--trace 0` on every workload.
const END_TO_END: [&str; 5] = ["setup_s", "round_s", "ns_per_unit", "p95_us", "peak_rss_mb"];

/// Per-layer metrics, reported by `--trace 1` on every workload.
const PER_LAYER: [&str; 34] = [
    "jobq.queue_wait_ms",
    "jobq.worker_busy_ratio",
    "workloads.job_ms_p50",
    "workloads.job_ms_p95",
    "cpu.machine_new_ms",
    "cpu.instructions",
    "cpu.versioned_ops",
    "cpu.stall_cycles",
    "engine.events_dispatched",
    "engine.stale_ratio",
    "engine.probe_ns_per_event",
    "mem.l1_accesses",
    "mem.l1_hit_ratio",
    "mem.l2_misses",
    "mem.invalidations",
    "mem.probe_ns_per_access",
    "mvm.direct_hit_ratio",
    "mvm.walk_reads",
    "mvm.gc_phases",
    "mvm.reclaimed_blocks",
    "mvm.probe_ns_per_op",
    "vacuum.pin_ns_p50",
    "vacuum.pin_ns_p99",
    "vacuum.passes",
    "vacuum.reclaimed_per_put",
    "vacuum.pause_us_p99",
    "vacuum.watermark_lag_max",
    "map.get_ns_p50",
    "map.insert_ns_p50",
    "map.insert_ns_p99",
    "map.shard_contention_per_op",
    "cell.publishes_per_put",
    "cell.blocking_waits",
    "trace.overhead_ratio",
];

/// One measured value with its unit and, where it summarises samples,
/// how many.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            n: None,
        }
    }

    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Report lines printed before the metrics.
    pub lines: Vec<String>,
    pub spans: Vec<trace::Span>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off; end-to-end metrics.
    Untraced,
    /// Untraced and traced rounds alternate; per-layer metrics from the
    /// traced ones, and their ratio as the tracing overhead.
    Traced,
    /// Traced rounds only, no longer than the sample-count rule needs:
    /// measures the layers a workload does not drive itself.
    Side,
}

/// Worker threads for the queue and client threads for the store.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed for stream `i` derived from the workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xd6e8_feb8_6659_fd93);
    splitmix64(&mut s)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SimVersioned,
    SimBaseline,
    StoreZipfRw,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "sim_versioned" => Some(Workload::SimVersioned),
            "sim_baseline" => Some(Workload::SimBaseline),
            "store_zipf_rw" => Some(Workload::StoreZipfRw),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SimVersioned => "sim_versioned",
            Workload::SimBaseline => "sim_baseline",
            Workload::StoreZipfRw => "store_zipf_rw",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: osbench --workload <sim_versioned|sim_baseline|store_zipf_rw> --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Measured rounds after which `peak_rss_mb` is read. A fixed amount of
/// work, not the run's length, so a faster program that fits more rounds
/// into `--seconds` is not charged for memory they leak.
pub const RSS_AFTER_ROUNDS: usize = 8;

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from the `.git`
/// directory above the benchmark package when there is one.
fn git_rev() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Run {
    let sink = Arc::new(trace::Sink::new());
    let sim_kind = match args.workload {
        Workload::SimVersioned => Some(sim::Kind::Versioned),
        Workload::SimBaseline => Some(sim::Kind::Baseline),
        Workload::StoreZipfRw => None,
    };
    let mode = if args.trace {
        Mode::Traced
    } else {
        Mode::Untraced
    };
    let mut run = match sim_kind {
        Some(kind) => sim::run(kind, args.seed, args.seconds, mode, &sink),
        None => store::run(args.seed, args.seconds, mode, &sink),
    };
    if !args.trace {
        return run;
    }
    // Every per-layer metric is reported on every workload: the layers
    // this workload does not drive are measured by a short traced side
    // run of the other family, so their values are not this workload's.
    let side = match sim_kind {
        Some(_) => store::run(args.seed, 0.0, Mode::Side, &sink),
        None => sim::run(sim::Kind::Baseline, args.seed, 0.0, Mode::Side, &sink),
    };
    run.lines.push(format!(
        "side run ({}): {}",
        if sim_kind.is_some() {
            "store layers"
        } else {
            "simulator layers"
        },
        side.lines.join("; ")
    ));
    run.attempted += side.attempted;
    run.failed += side.failed;
    run.metrics.extend(side.metrics);
    run.spans.extend(side.spans);

    let by_layer = trace::layer_self(&run.spans);
    for (layer, (n, self_ns)) in &by_layer {
        run.lines.push(format!(
            "self time {layer}: {:.3} ms over {n} spans ({:.1} ns/span)",
            *self_ns as f64 / 1e6,
            *self_ns as f64 / *n as f64
        ));
    }
    run
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("osbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "osbench {} seed={} seconds={} trace={} nproc={} os={}/{} git={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        git_rev()
    );
    let run = run(&args);
    for line in &run.lines {
        println!("  {line}");
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &name in names {
        let m = run
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(m.value.is_finite(), "metric {name} is {}", m.value);
        let n = m.n.map_or(String::new(), |n| format!(" (n={n})"));
        println!("  {name} = {} {}{n}", m.value, m.unit);
        metrics.push((
            name,
            obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        ));
    }
    println!(
        "  failed_ratio = {} ratio ({} failed of {} attempted)",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-s{}.json", args.workload.name(), args.seed);
        let doc = trace::chrome_doc(&run.spans).to_compact();
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("  chrome trace: {path} ({} spans)", run.spans.len()),
            Err(e) => {
                eprintln!("osbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = obj(vec![
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::from_u64(run.attempted)),
        ("failed", Json::from_u64(run.failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", result.to_compact());
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn cli_accepts_the_documented_flags_and_rejects_the_rest() {
        let a = args("--workload sim_baseline --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::SimBaseline, 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload sim_baseline --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload sim_baseline --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload sim_baseline --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload sim_baseline --seed 1 --seconds 10").is_err());
        assert!(args("--workload sim_baseline --seed 1 --seconds 10 --trace").is_err());
    }

    #[test]
    fn seeds_derive_distinct_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(9, 3), mix(9, 3));
    }
}
