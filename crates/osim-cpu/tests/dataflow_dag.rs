//! Property: randomized single-assignment dataflow DAGs run to completion
//! under broadcast gate wake-ups, and every value a task consumes is the
//! one the host computes for it.
//!
//! Each node owns one O-structure and publishes exactly one version (v1)
//! of it: the fold of its own index with the values of its predecessors,
//! read with `LOAD-VERSION(1)` or `LOAD-LATEST` with a cap ≥ 1. Consumers
//! that arrive before their producer block on the gate and re-check after
//! every store or unlock to that structure, so fan-in, fan-out, random
//! compute, random core counts and fault injection all drive the blocked
//! load → wake → re-check path. Some producers also lock-load and unlock
//! their own version after publishing it, which exercises the unlock
//! wake-up and must read back the stored value.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use osim_cpu::{task, Machine, MachineCfg};
use osim_uarch::FaultPlan;

/// One node of the dataflow DAG.
#[derive(Debug, Clone)]
struct Node {
    /// Indices of earlier nodes whose value this node consumes.
    preds: Vec<usize>,
    /// `LOAD-LATEST` with this cap instead of `LOAD-VERSION(1)` when >0.
    latest_cap: Vec<u32>,
    /// Modeled compute between the loads and the store.
    work: u64,
    /// Whether the producer lock-loads and unlocks its own value after
    /// publishing it (exercises the unlock wake-up path).
    relock: bool,
}

fn dag() -> impl Strategy<Value = Vec<Node>> {
    proptest::collection::vec(
        (
            0u64..150,
            any::<bool>(),
            proptest::collection::vec(0u32..4, 0..3),
        ),
        2..16,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (work, relock, pred_picks))| {
                let mut preds: Vec<usize> = pred_picks
                    .iter()
                    .filter(|_| i > 0)
                    .map(|&p| p as usize % i)
                    .collect();
                preds.sort_unstable();
                preds.dedup();
                // cap 0 encodes an exact LOAD-VERSION(1); odd caps use
                // LOAD-LATEST with a cap the stored v1 always satisfies.
                let latest_cap = preds
                    .iter()
                    .map(|&p| if p % 2 == 1 { 1 + (p as u32 % 7) } else { 0 })
                    .collect();
                Node {
                    preds,
                    latest_cap,
                    work,
                    relock,
                }
            })
            .collect()
    })
}

/// One node's value: its index folded with its predecessors' values.
fn fold(i: usize, preds: impl IntoIterator<Item = u32>) -> u32 {
    preds
        .into_iter()
        .fold(i as u32, |acc, got| acc.wrapping_mul(31).wrapping_add(got))
}

/// Every node's value, computed on the host in index order (a node's
/// predecessors all have smaller indices).
fn host_values(nodes: &[Node]) -> Vec<u32> {
    let mut values = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        let v = fold(i, node.preds.iter().map(|&p| values[p]));
        values.push(v);
    }
    values
}

/// What the simulated tasks observed: each node's computed value, and the
/// value each relocking producer read back under its lock.
#[derive(Default)]
struct Observed {
    seen: Vec<(usize, u32)>,
    relocked: Vec<(usize, u32)>,
}

fn run_dag(nodes: &[Node], cores: usize, inject: Option<&str>) -> Observed {
    let mut cfg = MachineCfg::paper(cores);
    cfg.omgr.fault_plan = inject.map(|s| FaultPlan::parse(s).expect("valid preset"));
    let mut m = Machine::new(cfg);

    let roots: Vec<u32> = {
        let st = m.state();
        let mut st = st.borrow_mut();
        let s = &mut *st;
        (0..nodes.len())
            .map(|_| s.alloc.alloc_root(&mut s.ms).expect("root allocates"))
            .collect()
    };

    let observed: Rc<RefCell<Observed>> = Rc::default();
    let tasks = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let node = node.clone();
            let roots = roots.clone();
            let observed = Rc::clone(&observed);
            task(move |ctx| async move {
                let mut got = Vec::with_capacity(node.preds.len());
                for (k, &p) in node.preds.iter().enumerate() {
                    let cap = node.latest_cap[k];
                    got.push(if cap > 0 {
                        ctx.load_latest(roots[p], cap).await.1
                    } else {
                        ctx.load_version(roots[p], 1).await
                    });
                }
                let acc = fold(i, got);
                ctx.work(node.work).await;
                ctx.store_version(roots[i], 1, acc).await;
                if node.relock {
                    let v = ctx.lock_load_version(roots[i], 1).await;
                    ctx.work(7).await;
                    ctx.unlock_version(roots[i], 1, None).await;
                    observed.borrow_mut().relocked.push((i, v));
                }
                observed.borrow_mut().seen.push((i, acc));
            })
        })
        .collect();

    m.run_tasks(tasks).expect("dataflow DAG cannot deadlock");
    observed.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dataflow_dag_computes_host_values(
        nodes in dag(),
        cores in prop_oneof![Just(2usize), Just(3), Just(8)],
        inject in prop_oneof![
            Just(None),
            Just(Some("latency-jitter")),
            Just(Some("pool-pressure")),
            Just(Some("chaos")),
        ],
    ) {
        let want = host_values(&nodes);
        let mut obs = run_dag(&nodes, cores, inject);

        obs.seen.sort_unstable();
        let want_seen: Vec<(usize, u32)> = want.iter().copied().enumerate().collect();
        prop_assert_eq!(
            obs.seen, want_seen,
            "consumed values differ from the host fold: cores={} inject={:?}", cores, inject
        );

        obs.relocked.sort_unstable();
        let want_relocked: Vec<(usize, u32)> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.relock)
            .map(|(i, _)| (i, want[i]))
            .collect();
        prop_assert_eq!(
            obs.relocked, want_relocked,
            "relock read differs from the stored value: cores={} inject={:?}", cores, inject
        );
    }
}
