//! The simulator workloads: closed batches of the paper's six benchmarks
//! run through the `osim-jobq` worker queue, every result validated, and
//! every simulated counter checked across repeated sweeps, worker counts
//! and tracing.

use std::sync::Arc;
use std::time::Instant;

use osim_cpu::{Machine, MachineCfg};
use osim_engine::Sim;
use osim_jobq::{drain_telemetry, run_jobs, Job, RunCfg};
use osim_mem::{AccessKind, CacheCfg, MemSys, PageFlags};
use osim_uarch::{GcConfig, OManager, OManagerCfg};
use osim_workloads::harness::{DsCfg, DsResult};
use osim_workloads::levenshtein::LevCfg;
use osim_workloads::matmul::MatmulCfg;
use osim_workloads::{btree, hashtable, levenshtein, linked_list, matmul, rbtree};

use crate::stats::{median, min_samples, percentile};
use crate::trace::Sink;
use crate::{mix, nproc, peak_rss_mb, Metric, Mode, Run, RSS_AFTER_ROUNDS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Versioned runs at 1, 4 and 16 cores, 4:1 and 1:1 mixes, plus the
    /// `gc` experiment's tight version-block pool.
    Versioned,
    /// Unversioned sequential runs at L1 sizes 8–128 kB.
    Baseline,
}

/// One benchmark with its seeded input.
#[derive(Debug, Clone)]
enum Prog {
    List { cfg: DsCfg, rename_on_pass: bool },
    Tree(DsCfg),
    Hash(DsCfg),
    Rb(DsCfg),
    Lev(LevCfg),
    Mat(MatmulCfg),
}

/// One simulator job: a machine, a benchmark and its input.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub label: String,
    pub mcfg: MachineCfg,
    prog: Prog,
    versioned: bool,
}

impl JobSpec {
    pub fn run(&self) -> DsResult {
        let m = self.mcfg.clone();
        match (&self.prog, self.versioned) {
            (
                Prog::List {
                    cfg,
                    rename_on_pass,
                },
                true,
            ) => linked_list::run_versioned_with(m, cfg, *rename_on_pass),
            (Prog::List { cfg, .. }, false) => linked_list::run_unversioned(m, cfg),
            (Prog::Tree(c), true) => btree::run_versioned(m, c),
            (Prog::Tree(c), false) => btree::run_unversioned(m, c),
            (Prog::Hash(c), true) => hashtable::run_versioned(m, c),
            (Prog::Hash(c), false) => hashtable::run_unversioned(m, c),
            (Prog::Rb(c), true) => rbtree::run_versioned(m, c),
            (Prog::Rb(c), false) => rbtree::run_unversioned(m, c),
            (Prog::Lev(c), true) => levenshtein::run_versioned(m, c),
            (Prog::Lev(c), false) => levenshtein::run_unversioned(m, c),
            (Prog::Mat(c), true) => matmul::run_versioned(m, c),
            (Prog::Mat(c), false) => matmul::run_unversioned(m, c),
        }
    }
}

/// The `quick` scale of `osim-experiments`: 1000-element structures
/// (the large configuration), 256 measured ops, 96-character strings,
/// 28×28 matrices.
const INITIAL: usize = 1000;
const OPS: usize = 256;
const LEV_LEN: usize = 96;
const MAT_N: usize = 28;

const NAMES: [&str; 6] = ["list", "btree", "hash", "rbtree", "lev", "matmul"];

/// The six benchmarks; `rpw` is the irregular ones' reads per write.
fn progs(seed: u64, rpw: u32) -> [Prog; 6] {
    let ds = |i: u64| DsCfg {
        initial: INITIAL,
        ops: OPS,
        reads_per_write: rpw,
        scan_range: 0,
        key_space: INITIAL as u32 * 4,
        seed: mix(seed, i),
        insert_only: false,
    };
    [
        Prog::List {
            cfg: ds(1),
            rename_on_pass: false,
        },
        Prog::Tree(ds(2)),
        Prog::Hash(ds(3)),
        Prog::Rb(ds(4)),
        Prog::Lev(LevCfg {
            len: LEV_LEN,
            seed: mix(seed, 5) as u32,
        }),
        Prog::Mat(MatmulCfg {
            n: MAT_N,
            seed: mix(seed, 6) as u32,
        }),
    ]
}

/// The job list of a workload; every input seed derives from `seed`.
pub fn plan(kind: Kind, seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    match kind {
        Kind::Versioned => {
            for cores in [1, 4, 16] {
                for rpw in [4, 1] {
                    // Levenshtein and matmul have no read/write mix: run
                    // them once per core count.
                    let n = if rpw == 4 { 6 } else { 4 };
                    let ps = progs(mix(seed, 16 * cores as u64 + u64::from(rpw)), rpw);
                    for (name, prog) in NAMES.iter().zip(ps).take(n) {
                        jobs.push(JobSpec {
                            label: format!("{name} {cores}c r{rpw}"),
                            mcfg: MachineCfg::paper(cores),
                            prog,
                            versioned: true,
                        });
                    }
                }
            }
            // The gc experiment's tight pool: a 10-element list renamed on
            // every pass, with a free list small enough to keep the
            // collector busy.
            let mut mcfg = MachineCfg::paper(1);
            mcfg.omgr.initial_free_blocks = 2048;
            mcfg.omgr.refill_blocks = 256;
            mcfg.omgr.gc = GcConfig { watermark: 1792 };
            jobs.push(JobSpec {
                label: "list gc-tight".into(),
                mcfg,
                prog: Prog::List {
                    cfg: DsCfg {
                        initial: 10,
                        ops: 1000,
                        reads_per_write: 1,
                        scan_range: 0,
                        key_space: 64,
                        seed: mix(seed, 99),
                        insert_only: false,
                    },
                    rename_on_pass: true,
                },
                versioned: true,
            });
        }
        Kind::Baseline => {
            for kb in [8, 16, 32, 64, 128] {
                let ps = progs(mix(seed, u64::from(kb)), 4);
                for (name, prog) in NAMES.iter().zip(ps) {
                    let mut mcfg = MachineCfg::paper(1);
                    mcfg.hier.l1 = CacheCfg::l1_sized(kb);
                    jobs.push(JobSpec {
                        label: format!("{name} {kb}kB"),
                        mcfg,
                        prog,
                        versioned: false,
                    });
                }
            }
        }
    }
    jobs
}

/// Every simulated counter a speed-only change must leave identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub cycles: u64,
    pub events: u64,
    pub stale: u64,
    pub instructions: u64,
    pub versioned_ops: u64,
    pub stall_cycles: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub invalidations: u64,
    pub direct_hits: u64,
    pub full_lookups: u64,
    pub walk_reads: u64,
    pub mvm_stores: u64,
    pub gc_phases: u64,
    pub reclaimed_blocks: u64,
}

impl Counters {
    pub fn of(r: &DsResult) -> Self {
        let m = &r.mem;
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        Counters {
            cycles: r.cycles,
            events: r.engine.events_dispatched,
            stale: r.engine.stale_events,
            instructions: r.cpu.instructions,
            versioned_ops: r.cpu.versioned_ops,
            stall_cycles: r.cpu.stall_cycles,
            l1_hits: sum(&m.l1_read_hits) + sum(&m.l1_write_hits),
            l1_misses: sum(&m.l1_read_misses) + sum(&m.l1_write_misses),
            l2_hits: m.l2_hits,
            l2_misses: m.l2_misses,
            invalidations: m.invalidations,
            direct_hits: r.ostats.direct_hits,
            full_lookups: r.ostats.full_lookups,
            walk_reads: r.ostats.walk_reads,
            mvm_stores: r.ostats.stores,
            gc_phases: r.ostats.gc_phases,
            reclaimed_blocks: r.ostats.reclaimed_blocks,
        }
    }

    fn total(cs: &[Counters]) -> Counters {
        cs.iter().fold(Counters::default(), |a, c| Counters {
            cycles: a.cycles + c.cycles,
            events: a.events + c.events,
            stale: a.stale + c.stale,
            instructions: a.instructions + c.instructions,
            versioned_ops: a.versioned_ops + c.versioned_ops,
            stall_cycles: a.stall_cycles + c.stall_cycles,
            l1_hits: a.l1_hits + c.l1_hits,
            l1_misses: a.l1_misses + c.l1_misses,
            l2_hits: a.l2_hits + c.l2_hits,
            l2_misses: a.l2_misses + c.l2_misses,
            invalidations: a.invalidations + c.invalidations,
            direct_hits: a.direct_hits + c.direct_hits,
            full_lookups: a.full_lookups + c.full_lookups,
            walk_reads: a.walk_reads + c.walk_reads,
            mvm_stores: a.mvm_stores + c.mvm_stores,
            gc_phases: a.gc_phases + c.gc_phases,
            reclaimed_blocks: a.reclaimed_blocks + c.reclaimed_blocks,
        })
    }
}

/// Failed jobs of a sweep: a result that did not validate, or whose
/// simulated counters differ from the reference sweep's for that job.
pub fn failures(reference: &[Counters], results: &[DsResult]) -> u64 {
    assert_eq!(reference.len(), results.len(), "one result per planned job");
    reference
        .iter()
        .zip(results)
        .filter(|(want, got)| !got.ok || Counters::of(got) != **want)
        .count() as u64
}

struct Sweep {
    wall_s: f64,
    results: Vec<DsResult>,
    /// Per-job host time in ms, as the queue measured it.
    run_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    /// Summed worker busy time and batch wall time, in ms.
    busy_ms: f64,
    batch_ms: f64,
}

/// One closed batch: every job submitted at once, timed from the first
/// submission to the last result. With a sink, each job's call into its
/// workload is recorded as a child span of the sweep.
fn sweep(specs: &[JobSpec], workers: usize, sink: Option<&Arc<Sink>>, round: u64) -> Sweep {
    let _ = drain_telemetry();
    let sweep_id = sink.map(|s| s.next_id());
    let jobs: Vec<Job<DsResult>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let spec = spec.clone();
            match (sink, sweep_id) {
                (Some(sink), Some(parent)) => {
                    let sink = Arc::clone(sink);
                    Job::new(spec.label.clone(), move || {
                        let t0 = Instant::now();
                        let r = spec.run();
                        let id = sink.next_id();
                        let req = round * 1000 + i as u64;
                        sink.record(
                            id,
                            Some(parent),
                            "osim-workloads",
                            spec.label,
                            t0,
                            Instant::now(),
                            req,
                        );
                        r
                    })
                }
                _ => Job::new(spec.label.clone(), move || spec.run()),
            }
        })
        .collect();
    let cfg = RunCfg {
        threads: workers,
        cache: None,
        counters: |r: &DsResult| (r.engine.events_dispatched, r.engine.stale_events),
    };
    let t0 = Instant::now();
    let outcomes = run_jobs(jobs, cfg);
    let t1 = Instant::now();
    if let (Some(sink), Some(id)) = (sink, sweep_id) {
        sink.record(id, None, "osim-jobq", "run_jobs", t0, t1, round);
    }
    let tel = drain_telemetry();
    Sweep {
        wall_s: (t1 - t0).as_secs_f64(),
        results: outcomes.into_iter().map(|o| o.result).collect(),
        run_ms: tel.jobs.iter().map(|j| j.run_ms).collect(),
        queue_ms: tel.jobs.iter().map(|j| j.queue_ms).collect(),
        busy_ms: tel.busy_ms.iter().sum(),
        batch_ms: tel.wall_ms,
    }
}

/// Runs a simulator workload. `Mode::Untraced` measures the end-to-end
/// metrics; `Mode::Traced` alternates untraced and traced sweeps and
/// reports the per-layer metrics plus the tracing overhead; `Mode::Side`
/// runs only traced sweeps, as few as the sample-count rule allows.
pub fn run(kind: Kind, seed: u64, seconds: f64, mode: Mode, sink: &Arc<Sink>) -> Run {
    // Set-up is the job list's generation from the seed, timed afresh
    // before every sweep.
    let mut setup = Vec::new();
    let mut timed_plan = || {
        let t0 = Instant::now();
        let specs = plan(kind, seed);
        setup.push(t0.elapsed().as_secs_f64());
        specs
    };
    let specs = timed_plan();
    let workers = nproc();

    // A serial sweep first: it warms the process up and is the reference
    // every later sweep's counters must equal.
    let reference_sweep = sweep(&specs, 1, None, 0);
    let reference: Vec<Counters> = reference_sweep.results.iter().map(Counters::of).collect();
    let mut attempted = specs.len() as u64;
    let mut failed = reference_sweep.results.iter().filter(|r| !r.ok).count() as u64;

    let need = min_samples(0.95) as usize;
    let started = Instant::now();
    let (mut plain, mut traced): (Vec<Sweep>, Vec<Sweep>) = (Vec::new(), Vec::new());
    let mut rss_mb = f64::NAN;
    for round in 1.. {
        let trace_this = match mode {
            Mode::Untraced => false,
            Mode::Traced => round % 2 == 0,
            Mode::Side => true,
        };
        let specs = timed_plan();
        let s = sweep(&specs, workers, trace_this.then_some(sink), round);
        attempted += specs.len() as u64;
        failed += failures(&reference, &s.results);
        if trace_this { &mut traced } else { &mut plain }.push(s);
        let measured = if mode == Mode::Untraced {
            &plain
        } else {
            &traced
        };
        if measured.len() == RSS_AFTER_ROUNDS {
            rss_mb = peak_rss_mb();
        }
        let samples: usize = measured.iter().map(|s| s.run_ms.len()).sum();
        let seconds = if mode == Mode::Side { 0.0 } else { seconds };
        if started.elapsed().as_secs_f64() >= seconds
            && samples >= need
            && measured.len() >= RSS_AFTER_ROUNDS
        {
            break;
        }
    }

    let totals = Counters::total(&reference);
    let mut run = Run {
        attempted,
        failed,
        ..Run::default()
    };
    run.lines.push(format!(
        "{} jobs per sweep on {workers} workers; {} untraced + {} traced sweeps; serial reference sweep {:.3} s",
        specs.len(),
        plain.len(),
        traced.len(),
        reference_sweep.wall_s
    ));
    if mode == Mode::Untraced {
        let run_ms: Vec<f64> = plain
            .iter()
            .flat_map(|s| s.run_ms.iter().copied())
            .collect();
        let job_us: Vec<f64> = run_ms.iter().map(|ms| ms * 1e3).collect();
        let sweeps: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
        let events = totals.events as f64 * plain.len() as f64;
        let host_ns_per_event = run_ms.iter().sum::<f64>() * 1e6 / events;
        let p95 = percentile(&job_us, 0.95).expect("sample rule met by the loop");
        run.metrics = vec![
            Metric::new("setup_s", "s", median(&setup)).n(setup.len()),
            Metric::new("round_s", "s", median(&sweeps)).n(sweeps.len()),
            Metric::new("ns_per_unit", "ns", host_ns_per_event).n(run_ms.len()),
            Metric::new("p95_us", "us", p95.value).n(p95.n as usize),
            Metric::new("peak_rss_mb", "MB", rss_mb),
        ];
        run.lines.push(format!(
            "sweep_s = {:.6} s (median of {}), host_ns_per_event = {host_ns_per_event:.3} ns over {} events",
            median(&sweeps),
            sweeps.len(),
            events
        ));
        return run;
    }

    let spans = sink.take();
    let job_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == "osim-workloads")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let queue_ms: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.queue_ms.iter().copied())
        .collect();
    let busy: f64 = traced.iter().map(|s| s.busy_ms).sum();
    let batch: f64 = traced.iter().map(|s| s.batch_ms).sum();
    let (p50, p95) = (
        percentile(&job_ms, 0.5).expect("sample rule met by the loop"),
        percentile(&job_ms, 0.95).expect("sample rule met by the loop"),
    );
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let t = totals;
    run.metrics = vec![
        Metric::new(
            "jobq.queue_wait_ms",
            "ms",
            queue_ms.iter().sum::<f64>() / queue_ms.len() as f64,
        )
        .n(queue_ms.len()),
        Metric::new(
            "jobq.worker_busy_ratio",
            "ratio",
            busy / (batch * workers as f64),
        ),
        Metric::new("workloads.job_ms_p50", "ms", p50.value).n(p50.n as usize),
        Metric::new("workloads.job_ms_p95", "ms", p95.value).n(p95.n as usize),
        Metric::new("cpu.instructions", "count", t.instructions as f64),
        Metric::new("cpu.versioned_ops", "count", t.versioned_ops as f64),
        Metric::new("cpu.stall_cycles", "cycles", t.stall_cycles as f64),
        Metric::new("engine.events_dispatched", "count", t.events as f64),
        Metric::new("engine.stale_ratio", "ratio", ratio(t.stale, t.events)),
        Metric::new("mem.l1_accesses", "count", (t.l1_hits + t.l1_misses) as f64),
        Metric::new(
            "mem.l1_hit_ratio",
            "ratio",
            ratio(t.l1_hits, t.l1_hits + t.l1_misses),
        ),
        Metric::new("mem.l2_misses", "count", t.l2_misses as f64),
        Metric::new("mem.invalidations", "count", t.invalidations as f64),
        Metric::new(
            "mvm.direct_hit_ratio",
            "ratio",
            ratio(t.direct_hits, t.direct_hits + t.full_lookups),
        ),
        Metric::new("mvm.walk_reads", "count", t.walk_reads as f64),
        Metric::new("mvm.gc_phases", "count", t.gc_phases as f64),
        Metric::new("mvm.reclaimed_blocks", "count", t.reclaimed_blocks as f64),
    ];
    let probes = probes(&specs, sink);
    run.metrics.extend(probes.iter().cloned());
    if mode == Mode::Traced {
        let med = |v: &[Sweep]| median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        run.metrics.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            med(&traced) / med(&plain),
        ));
    }
    // Probe cost per call times the layer's exact count: an estimate of
    // the host time each layer takes inside one sweep's jobs.
    let probe = |name: &str| {
        probes
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    for (layer, ns, count, what) in [
        (
            "osim-cpu",
            probe("cpu.machine_new_ms") * 1e6,
            specs.len() as u64,
            "Machine::new",
        ),
        (
            "osim-engine",
            probe("engine.probe_ns_per_event"),
            t.events,
            "events",
        ),
        (
            "osim-mem",
            probe("mem.probe_ns_per_access"),
            t.l1_hits + t.l1_misses,
            "L1 accesses",
        ),
        (
            "osim-uarch",
            probe("mvm.probe_ns_per_op"),
            t.versioned_ops,
            "versioned ops",
        ),
    ] {
        run.lines.push(format!(
            "estimate {layer}: {ns:.1} ns/call (probe) x {count} {what} = {:.3} ms per sweep",
            ns * count as f64 / 1e6
        ));
    }
    run.spans = spans;
    run.spans.extend(sink.take());
    run
}

/// Layer probes: the host cost of one call into a layer, timed outside
/// any job so a change to that layer shows on its own.
fn probes(specs: &[JobSpec], sink: &Arc<Sink>) -> Vec<Metric> {
    let root = sink.next_id();
    let t_root = Instant::now();
    let span = |layer: &'static str, name: &str, t0: Instant, req: u64| {
        sink.record(
            sink.next_id(),
            Some(root),
            layer,
            name,
            t0,
            Instant::now(),
            req,
        );
    };

    // osim-cpu: building each job's machine.
    let mut machine_ms = Vec::new();
    for rep in 0..3 {
        for (i, spec) in specs.iter().enumerate() {
            let t0 = Instant::now();
            let m = Machine::new(spec.mcfg.clone());
            machine_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(std::hint::black_box(m));
            span(
                "osim-cpu",
                "Machine::new",
                t0,
                (rep * specs.len() + i) as u64,
            );
        }
    }

    // osim-engine: sleep storms and gate broadcast churn.
    let mut event_ns = Vec::new();
    for rep in 0..5 {
        let t0 = Instant::now();
        let sim = Sim::new();
        let h = sim.handle();
        for t in 0..32u64 {
            let h = h.clone();
            sim.spawn(async move {
                for _ in 0..500 {
                    h.sleep(1 + t % 7).await;
                }
            });
        }
        let gate = h.gate();
        for _ in 0..16 {
            let gate = gate.clone();
            sim.spawn(async move {
                for _ in 0..500 {
                    gate.wait().await;
                }
            });
        }
        let opener = h.clone();
        sim.spawn(async move {
            for _ in 0..500 {
                gate.open_at(opener.now() + 1);
                opener.sleep(1).await;
            }
        });
        sim.run().expect("probe simulation completes");
        let events = sim.stats().events_dispatched;
        event_ns.push(t0.elapsed().as_nanos() as f64 / events as f64);
        span("osim-engine", "Sim::run", t0, rep);
    }

    // osim-mem: 80/20 read/write demand accesses spread over a 64 KiB
    // footprint (the 1000-node structures), on each job's hierarchy.
    let mut access_ns = Vec::new();
    let mut rng = 0x6d65_6d00u64;
    for (i, spec) in specs.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
        let cores = spec.mcfg.cores;
        let mut ms = MemSys::new(spec.mcfg.hier.clone(), 64 << 20);
        let n = 50_000u32;
        let t0 = Instant::now();
        let mut lat = 0u64;
        for k in 0..n {
            let r = crate::splitmix64(&mut rng);
            let addr = 0x10_0000 + (r as u32 % (64 << 10));
            let kind = if r >> 40 & 7 < 2 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            lat += ms.hier.access(k as usize % cores, addr, kind).latency;
        }
        std::hint::black_box(lat);
        access_ns.push(t0.elapsed().as_nanos() as f64 / f64::from(n));
        span("osim-mem", "Hierarchy::access", t0, i as u64);
    }

    // osim-uarch: version stores each followed by an exact load.
    let mut mvm_ns = Vec::new();
    for rep in 0..5 {
        let stores = 5_000u32;
        let mut ms = MemSys::new(specs[0].mcfg.hier.clone(), 64 << 20);
        let va = ms
            .map_zeroed(1, PageFlags::VersionedRoot)
            .expect("probe root maps");
        let cfg = OManagerCfg {
            initial_free_blocks: stores + 64,
            ..Default::default()
        };
        let mut mgr = OManager::new(cfg, &mut ms).expect("probe manager");
        let t0 = Instant::now();
        for v in 1..=stores {
            mgr.store_version(&mut ms, 0, va, v, v)
                .expect("probe store");
            std::hint::black_box(mgr.load_version(&mut ms, 0, va, v).expect("probe load"));
        }
        mvm_ns.push(t0.elapsed().as_nanos() as f64 / f64::from(2 * stores));
        span("osim-uarch", "store_version+load_version", t0, rep);
    }
    sink.record(root, None, "bench", "probes", t_root, Instant::now(), 0);

    vec![
        Metric::new("cpu.machine_new_ms", "ms", median(&machine_ms)).n(machine_ms.len()),
        Metric::new("engine.probe_ns_per_event", "ns", median(&event_ns)).n(event_ns.len()),
        Metric::new("mem.probe_ns_per_access", "ns", median(&access_ns)).n(access_ns.len()),
        Metric::new("mvm.probe_ns_per_op", "ns", median(&mvm_ns)).n(mvm_ns.len()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job() -> JobSpec {
        JobSpec {
            label: "hash tiny".into(),
            mcfg: MachineCfg::paper(1),
            prog: Prog::Hash(DsCfg {
                initial: 32,
                ops: 32,
                reads_per_write: 4,
                scan_range: 0,
                key_space: 128,
                seed: 5,
                insert_only: false,
            }),
            versioned: true,
        }
    }

    #[test]
    fn plans_are_seeded() {
        for kind in [Kind::Versioned, Kind::Baseline] {
            let a = format!("{:?}", plan(kind, 1));
            assert_eq!(a, format!("{:?}", plan(kind, 1)));
            assert_ne!(a, format!("{:?}", plan(kind, 2)));
        }
        assert_eq!(plan(Kind::Versioned, 0).len(), 31);
        assert_eq!(plan(Kind::Baseline, 0).len(), 30);
    }

    #[test]
    fn corrupted_results_count_as_failed() {
        let good = tiny_job().run();
        assert!(good.ok);
        let reference = vec![Counters::of(&good)];
        assert_eq!(failures(&reference, std::slice::from_ref(&good)), 0);

        let mut flipped = good.clone();
        flipped.ok = false;
        assert_eq!(failures(&reference, &[flipped]), 1);

        let mut cycles = good.clone();
        cycles.cycles += 1;
        assert_eq!(failures(&reference, &[cycles]), 1);

        let mut events = good;
        events.engine.events_dispatched -= 1;
        assert_eq!(failures(&reference, &[events]), 1);
    }

    #[test]
    fn counters_agree_across_worker_counts() {
        let specs = vec![tiny_job(); 3];
        let serial = sweep(&specs, 1, None, 0);
        let reference: Vec<Counters> = serial.results.iter().map(Counters::of).collect();
        let sink = Arc::new(Sink::new());
        let parallel = sweep(&specs, 2, Some(&sink), 1);
        assert_eq!(failures(&reference, &parallel.results), 0);
        let spans = sink.take();
        assert_eq!(spans.len(), 4, "one sweep span plus one per job");
        assert_eq!(spans.iter().filter(|s| s.parent.is_some()).count(), 3);
    }
}
