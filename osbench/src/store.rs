//! The store workload: closed-loop clients on an `OMap<u32, u64>` with a
//! `ReaderRegistry` and a live `Vacuum`. Key popularity is zipf (s = 1);
//! 90% of ops pin a snapshot and read one key, 10% take a fresh version
//! and write it. Every put writes value = version, which makes both
//! correctness checks exact.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use osim_metrics::Registry;
use ostructs_core::{
    fill_store_registry, OError, OMap, ReaderRegistry, Vacuum, VacuumCfg, Version,
};

use crate::stats::{median, min_samples, LatHist, Pct};
use crate::trace::{ns_since, thread_track, Sink, Span, LOCAL_ID_BASE};
use crate::{mix, nproc, peak_rss_mb, splitmix64, Metric, Mode, Run, RSS_AFTER_ROUNDS};

/// Keys in the map; key `k` is preloaded at version `k + 1`.
pub const KEYS: u32 = 1024;
/// Ops each client completes per round.
const OPS_PER_ROUND: u64 = 50_000;
/// One op in 10 is a put.
const PUT_ONE_IN: u64 = 10;
/// Cadence of the vacuum's passes.
const VACUUM_EVERY: Duration = Duration::from_millis(5);
/// Traced ops whose spans are kept for export: one in this many.
const KEEP_SPANS_EVERY: u64 = 1024;

/// Inverse-CDF zipf(s = 1) sampler over `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64 * total);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, r: u64) -> usize {
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A read is correct when it found the key (every key is preloaded and
/// the vacuum keeps the newest version at or below any pinned cap) and
/// the version it saw is not above the reader's cap.
pub fn read_ok(got: Option<u64>, cap: Version) -> bool {
    matches!(got, Some(v) if v <= cap)
}

/// Keys whose newest value differs from the highest acknowledged put
/// (or the preload, for keys never written).
pub fn lost_puts(map: &OMap<u32, u64>, acked: &[u64]) -> u64 {
    (0..KEYS)
        .filter(|&k| {
            let want = acked[k as usize].max(u64::from(k) + 1);
            map.get_arc(&k, Version::MAX).map(|v| *v) != Some(want)
        })
        .count() as u64
}

struct Store {
    reg: ReaderRegistry,
    map: OMap<u32, u64>,
    vac: Vacuum,
}

fn setup() -> Store {
    let reg = ReaderRegistry::new();
    // The benchmark drives the passes itself (see `vacuum_loop`), so the
    // vacuum's own thread only idles.
    let vac = Vacuum::start(
        reg.clone(),
        VacuumCfg {
            interval: Duration::from_secs(3600),
        },
    );
    let map = OMap::new();
    vac.track(&map);
    for k in 0..KEYS {
        let v = reg.next_version();
        map.insert(k, v, v).expect("fresh version");
    }
    Store { reg, map, vac }
}

/// Latencies of one client, kept apart for untraced and traced rounds.
#[derive(Default, Clone)]
struct OpStats {
    get: LatHist,
    put: LatHist,
    /// Traced rounds only: the registry's share of a read (pin + unpin),
    /// the map read itself, and the map write.
    pin: LatHist,
    map_get: LatHist,
    map_insert: LatHist,
}

impl OpStats {
    fn merge(&mut self, o: &OpStats) {
        self.get.merge(&o.get);
        self.put.merge(&o.put);
        self.pin.merge(&o.pin);
        self.map_get.merge(&o.map_get);
        self.map_insert.merge(&o.map_insert);
    }

    fn ops(&self) -> u64 {
        self.get.count() + self.put.count()
    }

    fn all(&self) -> LatHist {
        let mut h = self.get.clone();
        h.merge(&self.put);
        h
    }
}

#[derive(Default)]
struct ClientOut {
    plain: OpStats,
    traced: OpStats,
    failed: u64,
    /// Highest acknowledged put per key.
    acked: Vec<u64>,
    spans: Vec<Span>,
}

impl ClientOut {
    fn ack(&mut self, key: u32, v: Version, res: Result<(), OError>) {
        match res {
            Ok(()) => self.acked[key as usize] = self.acked[key as usize].max(v),
            Err(_) => self.failed += 1,
        }
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    (to - from).as_nanos() as u64
}

const VACUUM: &str = "ostructs-core/vacuum";
const MAP: &str = "ostructs-core/map";

/// Round control shared by the main thread and the clients.
struct Rounds {
    start: Barrier,
    done: Barrier,
    stop: AtomicBool,
    traced: AtomicBool,
}

fn client_loop(
    store: &Store,
    zipf: &Zipf,
    rounds: &Rounds,
    seed: u64,
    ix: u64,
    epoch: Instant,
) -> ClientOut {
    let mut out = ClientOut {
        acked: vec![0; KEYS as usize],
        ..ClientOut::default()
    };
    let mut rng = mix(seed, 1000 + ix);
    let (reg, map) = (&store.reg, &store.map);
    let track = thread_track();
    let mut next_id = (ix + 1) * LOCAL_ID_BASE;
    let mut op_index = 0u64;
    loop {
        rounds.start.wait();
        if rounds.stop.load(Ordering::SeqCst) {
            return out;
        }
        let traced = rounds.traced.load(Ordering::SeqCst);
        for _ in 0..OPS_PER_ROUND {
            op_index += 1;
            let r = splitmix64(&mut rng);
            let key = zipf.sample(r) as u32;
            let put = r.is_multiple_of(PUT_ONE_IN);
            if !traced {
                let t0 = Instant::now();
                if put {
                    let v = reg.next_version();
                    let res = map.insert(key, v, v);
                    out.plain.put.record(ns(t0, Instant::now()));
                    out.ack(key, v, res);
                } else {
                    let guard = reg.pin();
                    let cap = guard.cap();
                    let got = map.get_arc(&key, cap).map(|v| *v);
                    drop(guard);
                    out.plain.get.record(ns(t0, Instant::now()));
                    out.failed += u64::from(!read_ok(got, cap));
                }
                continue;
            }
            // Traced: a timestamp at every call boundary; `calls[i]` runs
            // from `t[i]` to `t[i + 1]`.
            let mut t = [Instant::now(); 4];
            let calls: &[(&str, &'static str)] = if put {
                let v = reg.next_version();
                t[1] = Instant::now();
                let res = map.insert(key, v, v);
                t[2] = Instant::now();
                t[3] = t[2];
                out.traced.map_insert.record(ns(t[1], t[2]));
                out.traced.put.record(ns(t[0], t[3]));
                out.ack(key, v, res);
                &[("next_version", VACUUM), ("insert", MAP)]
            } else {
                let guard = reg.pin();
                t[1] = Instant::now();
                let cap = guard.cap();
                let got = map.get_arc(&key, cap).map(|v| *v);
                t[2] = Instant::now();
                drop(guard);
                t[3] = Instant::now();
                out.traced.pin.record(ns(t[0], t[1]) + ns(t[2], t[3]));
                out.traced.map_get.record(ns(t[1], t[2]));
                out.traced.get.record(ns(t[0], t[3]));
                out.failed += u64::from(!read_ok(got, cap));
                &[("pin", VACUUM), ("get_arc", MAP), ("unpin", VACUUM)]
            };
            if op_index.is_multiple_of(KEEP_SPANS_EVERY) {
                let root = next_id;
                next_id += 4;
                let span = |id, parent, layer, name: &str, start, end| Span {
                    id,
                    parent,
                    layer,
                    name: name.to_string(),
                    start_ns: ns_since(epoch, start),
                    end_ns: ns_since(epoch, end),
                    req: op_index,
                    tid: track,
                };
                let name = if put { "put" } else { "get" };
                out.spans.push(span(root, None, "bench", name, t[0], t[3]));
                for (i, &(name, layer)) in calls.iter().enumerate() {
                    let id = root + 1 + i as u64;
                    out.spans
                        .push(span(id, Some(root), layer, name, t[i], t[i + 1]));
                }
            }
        }
        rounds.done.wait();
    }
}

#[derive(Default)]
struct VacOut {
    passes: u64,
    reclaimed: u64,
    lag_max: u64,
    pause: LatHist,
    spans: Vec<Span>,
}

fn vacuum_loop(
    store: &Store,
    stop: &AtomicBool,
    passes: &AtomicU64,
    traced: bool,
    epoch: Instant,
) -> VacOut {
    let mut out = VacOut::default();
    let track = thread_track();
    loop {
        std::thread::sleep(VACUUM_EVERY);
        if stop.load(Ordering::SeqCst) {
            return out;
        }
        out.lag_max = out.lag_max.max(store.reg.watermark_lag());
        let t0 = Instant::now();
        out.reclaimed += store.vac.run_pass();
        let t1 = Instant::now();
        out.pause.record(ns(t0, t1));
        if traced {
            out.spans.push(Span {
                id: LOCAL_ID_BASE / 2 + out.passes,
                parent: None,
                layer: VACUUM,
                name: "run_pass".into(),
                start_ns: ns_since(epoch, t0),
                end_ns: ns_since(epoch, t1),
                req: out.passes,
                tid: track,
            });
        }
        out.passes += 1;
        passes.store(out.passes, Ordering::SeqCst);
    }
}

fn store_counters() -> (u64, u64, u64) {
    let mut reg = Registry::new();
    fill_store_registry(&mut reg);
    (
        reg.counter("osim_store_snapshot_publish_total", &[]),
        reg.counter("osim_store_lock_contention_total", &[]),
        reg.counter("osim_store_blocking_waits_total", &[]),
    )
}

/// Runs the store workload; the modes mean what they do for
/// [`crate::sim::run`].
pub fn run(seed: u64, seconds: f64, mode: Mode, sink: &Arc<Sink>) -> Run {
    // Set-up is timed five times before the measured rounds and five
    // times after them, so its median does not hang on one moment's
    // host noise; the last store built before the rounds is measured.
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let store = setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        store
    };
    for _ in 0..4 {
        drop(timed_setup());
    }
    let store = timed_setup();
    let zipf = Zipf::new(KEYS as usize);
    let n_clients = nproc();
    let rounds = Rounds {
        start: Barrier::new(n_clients + 1),
        done: Barrier::new(n_clients + 1),
        stop: AtomicBool::new(false),
        traced: AtomicBool::new(false),
    };
    let (stop_vac, passes) = (AtomicBool::new(false), AtomicU64::new(0));
    let counters0 = store_counters();
    let seconds = if mode == Mode::Side { 0.0 } else { seconds };
    let need_passes = if mode == Mode::Untraced {
        0
    } else {
        min_samples(0.99)
    };
    let epoch = sink.epoch;

    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut rss_mb = f64::NAN;
    let (outs, vac) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients as u64)
            .map(|c| {
                let (store, zipf, rounds) = (&store, &zipf, &rounds);
                s.spawn(move || client_loop(store, zipf, rounds, seed, c, epoch))
            })
            .collect();
        let vac =
            s.spawn(|| vacuum_loop(&store, &stop_vac, &passes, mode != Mode::Untraced, epoch));
        let started = Instant::now();
        for round in 1u64.. {
            let traced = match mode {
                Mode::Untraced => false,
                Mode::Traced => round % 2 == 0,
                Mode::Side => true,
            };
            rounds.traced.store(traced, Ordering::SeqCst);
            rounds.start.wait();
            let t0 = Instant::now();
            rounds.done.wait();
            let dt = t0.elapsed().as_secs_f64();
            if traced { &mut traced_s } else { &mut plain_s }.push(dt);
            let measured = if mode == Mode::Untraced {
                plain_s.len()
            } else {
                traced_s.len()
            };
            if measured == RSS_AFTER_ROUNDS {
                rss_mb = peak_rss_mb();
            }
            if started.elapsed().as_secs_f64() >= seconds
                && passes.load(Ordering::SeqCst) >= need_passes
                && measured >= RSS_AFTER_ROUNDS
            {
                break;
            }
        }
        rounds.stop.store(true, Ordering::SeqCst);
        rounds.start.wait();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        stop_vac.store(true, Ordering::SeqCst);
        (outs, vac.join().expect("vacuum thread"))
    });
    let counters1 = store_counters();
    for _ in 0..5 {
        drop(timed_setup());
    }

    let mut acked = vec![0u64; KEYS as usize];
    let (mut plain, mut traced) = (OpStats::default(), OpStats::default());
    let mut run = Run::default();
    for o in &outs {
        plain.merge(&o.plain);
        traced.merge(&o.traced);
        run.failed += o.failed;
        for (a, &b) in acked.iter_mut().zip(&o.acked) {
            *a = (*a).max(b);
        }
    }
    run.failed += lost_puts(&store.map, &acked);
    let ops = plain.ops() + traced.ops();
    let puts = plain.put.count() + traced.put.count();
    run.attempted = ops;
    drop(store);

    let pct = |h: &LatHist, p: f64| -> Pct {
        h.percentile(p).expect("sample rule met by the run length")
    };
    let round_ops = OPS_PER_ROUND * n_clients as u64;
    run.lines.push(format!(
        "{n_clients} closed-loop clients x {OPS_PER_ROUND} ops per round over {KEYS} zipf keys; {} untraced + {} traced rounds; {} vacuum passes",
        plain_s.len(),
        traced_s.len(),
        vac.passes
    ));
    if mode == Mode::Untraced {
        let all = plain.all();
        let (p50, p95) = (pct(&all, 0.5), pct(&all, 0.95));
        run.metrics = vec![
            Metric::new("setup_s", "s", median(&setup_s)).n(setup_s.len()),
            Metric::new("round_s", "s", median(&plain_s)).n(plain_s.len()),
            Metric::new("ns_per_unit", "ns", all.sum() as f64 / all.count() as f64)
                .n(all.count() as usize),
            Metric::new("p95_us", "us", p95.value / 1e3).n(p95.n as usize),
            Metric::new("peak_rss_mb", "MB", rss_mb),
        ];
        run.lines
            .push(format!("op_p50_ns = {:.1} ns (n={})", p50.value, p50.n));
        let total_s: f64 = plain_s.iter().sum();
        run.lines.push(format!(
            "ops_per_s = {:.1} ops/s ({} ops in {total_s:.3} s); round median {:.1} ops/s",
            (plain_s.len() as u64 * round_ops) as f64 / total_s,
            plain_s.len() as u64 * round_ops,
            round_ops as f64 / median(&plain_s)
        ));
        for (name, h) in [("get", &plain.get), ("put", &plain.put)] {
            let (p50, p99) = (pct(h, 0.5), pct(h, 0.99));
            run.lines.push(format!(
                "{name}_p50_ns = {:.1} ns (n={}), {name}_p99_ns = {:.1} ns (n={})",
                p50.value, p50.n, p99.value, p99.n
            ));
        }
        return run;
    }

    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (pin50, pin99) = (pct(&traced.pin, 0.5), pct(&traced.pin, 0.99));
    let pause99 = pct(&vac.pause, 0.99);
    let get50 = pct(&traced.map_get, 0.5);
    let (ins50, ins99) = (pct(&traced.map_insert, 0.5), pct(&traced.map_insert, 0.99));
    run.metrics = vec![
        Metric::new("vacuum.pin_ns_p50", "ns", pin50.value).n(pin50.n as usize),
        Metric::new("vacuum.pin_ns_p99", "ns", pin99.value).n(pin99.n as usize),
        Metric::new("vacuum.passes", "count", vac.passes as f64),
        Metric::new(
            "vacuum.reclaimed_per_put",
            "ratio",
            per(vac.reclaimed, puts),
        ),
        Metric::new("vacuum.pause_us_p99", "us", pause99.value / 1e3).n(pause99.n as usize),
        Metric::new("vacuum.watermark_lag_max", "versions", vac.lag_max as f64),
        Metric::new("map.get_ns_p50", "ns", get50.value).n(get50.n as usize),
        Metric::new("map.insert_ns_p50", "ns", ins50.value).n(ins50.n as usize),
        Metric::new("map.insert_ns_p99", "ns", ins99.value).n(ins99.n as usize),
        Metric::new(
            "map.shard_contention_per_op",
            "ratio",
            per(counters1.1 - counters0.1, ops),
        ),
        Metric::new(
            "cell.publishes_per_put",
            "ratio",
            per(counters1.0 - counters0.0, puts),
        ),
        Metric::new(
            "cell.blocking_waits",
            "count",
            (counters1.2 - counters0.2) as f64,
        ),
    ];
    if mode == Mode::Traced {
        run.metrics.push(Metric::new(
            "trace.overhead_ratio",
            "ratio",
            median(&traced_s) / median(&plain_s),
        ));
    }
    run.lines.push(format!(
        "spans kept for one traced op in {KEEP_SPANS_EVERY}; pin/get/insert percentiles cover every traced op"
    ));
    run.spans = outs
        .into_iter()
        .flat_map(|o| o.spans)
        .chain(vac.spans)
        .collect();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100);
        let mut rng = 7u64;
        let mut hits = [0u32; 100];
        for _ in 0..100_000 {
            hits[z.sample(splitmix64(&mut rng))] += 1;
        }
        // s = 1: key 0 is drawn about twice as often as key 1 and about
        // 1 / H(100) ≈ 19% of the time.
        assert!((17_000..21_500).contains(&hits[0]), "{}", hits[0]);
        assert!(hits[0] > hits[1] * 3 / 2 && hits[1] > hits[9]);
        assert_eq!(z.sample(u64::MAX), 99);
    }

    #[test]
    fn out_of_cap_and_missing_reads_fail() {
        assert!(read_ok(Some(5), 5));
        assert!(read_ok(Some(1), 5));
        assert!(!read_ok(Some(6), 5));
        assert!(!read_ok(None, 5));
    }

    #[test]
    fn lost_put_is_counted() {
        let store = setup();
        let mut acked = vec![0u64; KEYS as usize];
        assert_eq!(lost_puts(&store.map, &acked), 0);
        let v = store.reg.next_version();
        store.map.insert(3, v, v).expect("fresh version");
        acked[3] = v;
        assert_eq!(lost_puts(&store.map, &acked), 0);
        // A put acknowledged but never applied, and one whose value was
        // overwritten by an older version's, both count.
        acked[7] = v + 10;
        acked[3] = v + 1;
        assert_eq!(lost_puts(&store.map, &acked), 2);
    }

    #[test]
    fn short_traced_run_checks_out() {
        let sink = Arc::new(Sink::new());
        let run = run(3, 0.0, Mode::Side, &sink);
        assert_eq!(run.failed, 0);
        assert!(run.attempted >= OPS_PER_ROUND * 3);
        assert!(run.metrics.iter().all(|m| m.value.is_finite()));
        assert!(!run.spans.is_empty());
    }
}
