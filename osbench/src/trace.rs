//! Spans recorded by the benchmark around its calls into each layer, the
//! per-layer self time they imply, and their Chrome trace-event export.
//!
//! Spans are plain records kept in memory and written when the run ends.
//! Each carries the span that caused it (`parent`) and the request it
//! serves (`req`: a job index or an op index).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use osim_metrics::json::{obj, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one run.
    pub id: u64,
    pub parent: Option<u64>,
    /// Crate the call goes into (or `bench` for the benchmark's own code).
    pub layer: &'static str,
    pub name: String,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
    /// Thread track the span ran on.
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds from `epoch` to `t`.
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// A small per-thread track number for the trace's `tid` field.
pub fn thread_track() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static TRACK: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TRACK.with(|t| *t)
}

/// Shared in-memory span store for one traced run. Threads that record
/// many spans keep a local `Vec` instead and hand it back when they end.
pub struct Sink {
    pub epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Sink {
    pub fn new() -> Self {
        Sink {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Allocates a span id below [`LOCAL_ID_BASE`].
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span on the calling thread's track.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        req: u64,
    ) {
        let span = Span {
            id,
            parent,
            layer,
            name: name.into(),
            start_ns: ns_since(self.epoch, start),
            end_ns: ns_since(self.epoch, end),
            req,
            tid: thread_track(),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Threads allocating their own span ids use `(k + 1) * LOCAL_ID_BASE + seq`
/// for a per-thread `k`, clear of [`Sink::next_id`]'s range.
pub const LOCAL_ID_BASE: u64 = 1 << 40;

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (jobs on
/// parallel workers); covered time counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer totals: `(spans, summed self time in ns)`.
pub fn layer_self(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// A Chrome trace-event document in the layout of the simulator's host
/// trace export: one process per layer, one track per thread, `ts`/`dur`
/// in microseconds. Parent and request ids travel as `args`, so Perfetto
/// shows them on selection.
pub fn chrome_doc(spans: &[Span]) -> Json {
    let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        let next = pids.len() as u64;
        pids.entry(s.layer).or_insert(next);
    }
    let mut events: Vec<Json> = pids
        .iter()
        .map(|(layer, pid)| {
            obj(vec![
                ("name", Json::Str("process_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::from_u64(*pid)),
                ("tid", Json::from_u64(0)),
                ("args", obj(vec![("name", Json::Str((*layer).into()))])),
            ])
        })
        .collect();
    for s in spans {
        let parent = s.parent.map_or(Json::Null, Json::from_u64);
        events.push(obj(vec![
            ("name", Json::Str(s.name.clone())),
            ("cat", Json::Str(s.layer.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
            ("pid", Json::from_u64(pids[s.layer])),
            ("tid", Json::from_u64(s.tid)),
            (
                "args",
                obj(vec![
                    ("id", Json::from_u64(s.id)),
                    ("parent", parent),
                    ("req", Json::from_u64(s.req)),
                ]),
            ),
        ]));
    }
    obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            req: id,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, None, "osim-jobq", 0, 100),
            // Two overlapping children on parallel workers: [10, 60) ∪
            // [40, 80) covers 70 ns.
            span(2, Some(1), "osim-workloads", 10, 60),
            span(3, Some(1), "osim-workloads", 40, 80),
            // A grandchild reduces its parent only.
            span(4, Some(2), "osim-cpu", 20, 30),
            // A child running past its parent counts only inside it.
            span(5, Some(3), "osim-mem", 70, 95),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 30, 10, 25]);
        let by_layer = layer_self(&spans);
        assert_eq!(by_layer["osim-workloads"], (2, 70));
        assert_eq!(by_layer["osim-jobq"], (1, 30));
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span(7, Some(99), "bench", 5, 12)];
        assert_eq!(self_times(&spans), vec![7]);
    }

    #[test]
    fn chrome_doc_carries_parent_and_request() {
        let spans = vec![
            span(1, None, "osim-jobq", 0, 2000),
            span(2, Some(1), "osim-workloads", 500, 1500),
        ];
        let doc = chrome_doc(&spans);
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        let meta = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        assert_eq!(meta, 2);
        let child = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("s2"))
            .expect("child span");
        assert_eq!(child.get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(1.0));
        let args = child.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(1));
        assert_eq!(args.get("req").and_then(Json::as_u64), Some(2));
        let text = doc.to_compact();
        assert_eq!(osim_metrics::json::parse(&text).expect("valid JSON"), doc);
    }
}
